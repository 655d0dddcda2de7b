from .lab import main
main()
