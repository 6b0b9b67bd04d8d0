package main

import "unsafe"

// Worker stack placement.
//
// gonative picks a goroutine's thread-slot stripe, and so the virtual
// NUMA socket its CNA queue node reports, from the goroutine's stack
// address (bit 10 and up). Two workers with equal stacks at equal depth
// always share a stripe; one whose frames sit 1 KiB deeper lands on the
// other stripe. Left to chance, which of the two a run gets depends on
// goroutine stack sizes, and the two differ: on hot-rmw's traced server
// the shared stripe gave no remote handovers and the split one about
// two thirds, with throughput a tenth apart. So every phase pre-grows
// its workers' stacks to one size (aligning their tops) and alternates
// two placements across its repetitions: even repetitions run both
// workers at the same offset, odd ones run worker 1 exactly 1 KiB
// deeper. Each placement's repetitions are summarised separately and
// the headline is their mean, so both modes are measured in every run
// and shown on the rep lines.

// stackAddr returns an address in the calling goroutine's stack.
//
//go:noinline
func stackAddr() uintptr {
	var probe byte
	return uintptr(unsafe.Pointer(&probe))
}

// growStack grows the calling goroutine's stack well past what a
// request needs; the stack is then not copied (moved) during the phase,
// and every worker's stack has the same size.
//
//go:noinline
func growStack(depth int) byte {
	var pad [4096]byte
	if depth > 0 {
		pad[depth] = growStack(depth - 1)
	}
	return pad[depth]
}

// near and deep call fn with frames exactly 1 KiB apart in size.
//
//go:noinline
func near(fn func()) byte {
	var pad [64]byte
	fn()
	return pad[len(pad)-1]
}

//go:noinline
func deep(fn func()) byte {
	var pad [64 + 1<<10]byte
	fn()
	return pad[len(pad)-1]
}

// maxDepth bounds the stack distance between a worker's loop and the
// trace shim; the pre-grown stacks are far larger, so another worker's
// stack never falls within it.
const maxDepth = 16 << 10
