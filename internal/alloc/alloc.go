// Package alloc sizes the simulator's per-chip arrays to what the Go
// allocator will charge for them. A chip's per-core state lives in a few
// arrays of values (one per chip, not one object per core), and a lone
// array of an odd size is expensive out of proportion: malloc serves
// sizes up to 32 KiB from size classes, each class from spans of its
// own, and a class such as 18 432 bytes has 72 KiB spans — one 17 KiB
// array of 48 MPBs then pins 72 KiB of heap. The classes that are powers
// of two have spans that hold nothing but whole objects (one object per
// span from 8 KiB up), and sizes beyond 32 KiB are served in whole 8 KiB
// pages, so both are tight.
package alloc

import (
	"math/bits"
	"unsafe"
)

const (
	// maxSmall is the largest size malloc serves from a size class.
	maxSmall = 32 << 10
	// header is what malloc adds to a small block that holds pointers.
	header = 8
)

// Fill returns the capacity to give an array that must hold n values of
// T: n itself when the array is served in whole pages, else as many as
// fill the next power of two of bytes.
func Fill[T any](n int) int {
	var zero T
	size := int(unsafe.Sizeof(zero))
	bytes := n*size + header
	if size == 0 || n <= 0 || bytes > maxSmall {
		return n
	}
	class := 1 << bits.Len(uint(bytes-1)) // the power of two ≥ bytes
	return (class - header) / size
}

// Slice returns a zeroed slice of n values of T over an array of Fill
// capacity. Take windows of it with three-index slices if appends must
// not run into the spare capacity.
func Slice[T any](n int) []T { return make([]T, n, Fill[T](n)) }
