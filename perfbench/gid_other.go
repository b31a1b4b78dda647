//go:build !amd64

package main

// curg has no cheap implementation off amd64; every goroutine then
// shares one span stack, which keeps parents right only while a single
// request is in flight.
func curg() uintptr { return 0 }
