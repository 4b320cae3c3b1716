// Package alloc sizes the simulator's per-chip arrays to what the Go
// allocator will charge for them, and hands out the per-core tables and
// buffers a chip's cores grow from shared blocks (Arena). A chip's per-core state lives in a few
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

// Arena hands out windows of T whose capacities are powers of two, for
// the per-core tables and buffers of one chip: each capacity class is
// carved from blocks of its own, Per windows to a block (more where a
// block would be smaller than minBlock bytes, fewer where it would pass
// maxBlock, never fewer than one), so a chip's cores share a handful of
// allocations, and only the newest block of a class is ever partly
// unissued. A window given back — one its holder outgrew or let go — is
// the next one its class hands out. Windows are capped at their capacity
// (three-index slices), so an append past one can never run into a
// neighbour. A nil *Arena allocates every window on its own, which is
// how a holder built without a chip's arena works.
type Arena[T any] struct {
	// Per is the number of windows of a class one block holds; Min is
	// the smallest capacity a window has.
	Per, Min int
	// cls is indexed by capacity class, from Min's up to the largest
	// one taken.
	cls []sizeClass[T]
}

// sizeClass is the state of one capacity class of an Arena: the
// unissued rest of its newest block, and the windows given back.
type sizeClass[T any] struct {
	tail []T
	free [][]T
}

// Share is the Per of an arena whose windows most of a chip's cores
// take: one window per eight cores, so that a chip takes as many blocks
// whatever its size, and at least four (all of a chip of fewer), so
// that a small chip's cores share a block as well.
func Share(cores int) int { return max(cores/8, min(cores, 4)) }

// minBlock keeps a small chip's blocks from being single windows, and
// maxBlock a table that grows far from taking Per copies of its size at
// once; a block that large is served in whole pages, exactly.
const minBlock, maxBlock = 256, 256 << 10

// class is the capacity class of n ≥ 1 elements: 1<<class(n) ≥ n.
func class(n int) int { return bits.Len(uint(n - 1)) }

// Take returns a zeroed window of n ≥ 1 elements whose capacity is the
// power of two at or above n and Min.
func (a *Arena[T]) Take(n int) []T { return a.take(n, true) }

// Buffer is Take for a window its taker overwrites whole before reading
// it: one that was given back comes as it was left, not zeroed.
func (a *Arena[T]) Buffer(n int) []T { return a.take(n, false) }

func (a *Arena[T]) take(n int, zero bool) []T {
	if a == nil {
		return make([]T, n, 1<<class(n))
	}
	k := class(max(n, a.Min))
	size := 1 << k
	c := a.class(k)
	if f := c.free; len(f) > 0 {
		w := f[len(f)-1][:size]
		f[len(f)-1] = nil
		c.free = f[:len(f)-1]
		if zero {
			clear(w)
		}
		return w[:n]
	}
	if len(c.tail) < size {
		c.tail = make([]T, size*a.perBlock(size))
	}
	w := c.tail[:n:size]
	c.tail = c.tail[size:]
	return w
}

// class returns the state of capacity class k.
func (a *Arena[T]) class(k int) *sizeClass[T] {
	k -= class(max(a.Min, 1))
	if k >= len(a.cls) {
		if k >= cap(a.cls) {
			a.cls = append(make([]sizeClass[T], 0, 1<<bits.Len(uint(k))), a.cls...)
		}
		a.cls = a.cls[:k+1]
	}
	return &a.cls[k]
}

// perBlock is the number of windows of size elements a block holds.
// A block between 8 and 32 KiB is cut down to a power of two of bytes:
// malloc serves those sizes from classes whose spans hold several
// objects, so a lone block of one of them would pin several times its
// size. (The cut is exact for the pointer-free buffers, rings and
// programs; the 8-byte header malloc adds to a block that holds pointers
// moves it one class up.)
func (a *Arena[T]) perBlock(size int) int {
	var zero T
	bytes := size * max(int(unsafe.Sizeof(zero)), 1)
	per := max(min(max(a.Per, minBlock/bytes), maxBlock/bytes), 1)
	if b := per * bytes; b > 8<<10 && b <= maxSmall {
		per = max((1<<(bits.Len(uint(b))-1))/bytes, 1)
	}
	return per
}

// Give takes back a window Take or Grow returned; its holder must not
// use it any more.
func (a *Arena[T]) Give(w []T) {
	if a == nil || cap(w) == 0 {
		return
	}
	c := a.class(class(cap(w)))
	if c.free == nil {
		c.free = make([][]T, 0, max(a.perBlock(cap(w)), 8))
	}
	c.free = append(c.free, w[:0])
}

// Grow returns s, a window of a (or nil), extended to n elements, the
// new ones zero: s itself when its capacity allows, else a window of at
// least twice its capacity holding a copy of s, and s goes back to a.
func (a *Arena[T]) Grow(s []T, n int) []T {
	if n <= cap(s) {
		clear(s[len(s):n])
		return s[:n]
	}
	w := a.Take(max(n, 2*cap(s)))
	copy(w, s)
	a.Give(s)
	return w[:n]
}

// Append is append(s, v) for a window of a (or nil): it grows s by Grow.
func (a *Arena[T]) Append(s []T, v T) []T {
	if len(s) == cap(s) {
		s = a.Grow(s, len(s)+1)[:len(s)]
	}
	return append(s, v)
}
