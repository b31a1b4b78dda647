package main

// curg returns the address of the running goroutine's runtime descriptor:
// an identity that is stable while the goroutine lives, read in a few
// nanoseconds. The span recorder keys its per-goroutine stacks of open
// spans on it, to parent spans of layers whose calls carry no context.
func curg() uintptr
