// Package hotallocfix exercises the hotalloc analyzer: fmt calls,
// closure allocation, and every interface-boxing site (declaration,
// assignment, conversion, argument, return) inside functions marked
// //sysvet:hotpath, plus unmarked and suppressed controls.
package hotallocfix

import "fmt"

func consume(v any) { _ = v }

func consumeMany(vs ...any) { _ = vs }

//sysvet:hotpath
func hot(xs []int) {
	fmt.Println(xs)              // want `hot path hot calls fmt.Println`
	f := func() int { return 0 } // want `hot path hot allocates a closure`
	_ = f
	var v any = xs[0] // want `hot path hot boxes int into any`
	var w any
	w = xs[0] // want `hot path hot boxes int into any`
	_ = w
	consume(xs[0])     // want `hot path hot boxes int into any parameter of consume`
	consumeMany(xs[0]) // want `hot path hot boxes int into any parameter of consumeMany`
	_ = any(xs[0])     // want `hot path hot converts int to interface any`
	_ = v
}

//sysvet:hotpath
func hotRet(xs []int) any {
	return xs[0] // want `hot path hotRet boxes int into returned any`
}

//sysvet:hotpath
func hotClean(xs []int) int {
	// Arithmetic, indexing, nil interfaces, interface-to-interface
	// moves, and ... pass-through are all allocation-free.
	total := 0
	for _, x := range xs {
		total += x
	}
	var v any
	consume(v) // interface-to-interface: no boxing
	consume(nil)
	vs := []any{}
	consumeMany(vs...) // pass-through slice: no per-element boxing
	return total
}

//sysvet:hotpath
func hotIgnored(xs []int) {
	//sysvet:ignore hotalloc -- fixture: proves hotalloc suppression
	consume(xs[0])
}

func cold(xs []int) {
	// Unmarked functions may allocate freely.
	fmt.Println(xs)
	consume(xs[0])
	_ = func() int { return len(xs) }
}
