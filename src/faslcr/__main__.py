from .harness import cli_entry

if __name__ == "__main__":
    cli_entry()
