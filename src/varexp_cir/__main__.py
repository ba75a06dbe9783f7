"""``python -m varexp_cir``: the varexp-cir command line."""

from .cli import main

if __name__ == "__main__":
    main()
