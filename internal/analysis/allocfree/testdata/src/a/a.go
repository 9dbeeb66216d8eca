// Package a exercises allocfree: each allocating construct fires in an
// annotated function, and the alloc-ok, panic-path, and unannotated
// escapes stay silent.
package a

type T struct{ a, b int }

var pool []*T

func sink(v interface{})                      { _ = v }
func logf(format string, args ...interface{}) { _, _ = format, args }

// hotOK touches only stack state and existing memory.
//
//snvet:alloc-free
func hotOK(buf []byte) int {
	s := 0
	for _, b := range buf {
		s += int(b)
	}
	return s
}

//snvet:alloc-free
func escapes() *T {
	return &T{} // want `escaping composite literal allocates`
}

// valueLitOK: a value literal stays on the stack.
//
//snvet:alloc-free
func valueLitOK() T {
	t := T{a: 1}
	return t
}

//snvet:alloc-free
func sliceLit() []int {
	return []int{1, 2} // want `slice literal allocates its backing array`
}

//snvet:alloc-free
func mapMake() map[int]int {
	return make(map[int]int) // want `make allocates`
}

//snvet:alloc-free
func chanMake() chan int {
	return make(chan int) // want `make allocates`
}

//snvet:alloc-free
func newAlloc() *T {
	return new(T) // want `new allocates`
}

//snvet:alloc-free
func grows(s []int, v int) []int {
	return append(s, v) // want `append may grow and reallocate`
}

//snvet:alloc-free
func closes(x int) func() int {
	return func() int { return x } // want `function literal allocates its closure`
}

//snvet:alloc-free
func boxes(v uint64) {
	sink(v) // want `interface boxing of a non-pointer value allocates`
}

//snvet:alloc-free
func mapStores(m map[int]int, k int) {
	m[k] = 1   // want `map store may grow the map`
	m[k] += 2  // want `map store may grow the map`
	m[k]++     // want `map store may grow the map`
	(m)[k] = 3 // want `map store may grow the map`
}

// mapReadOK: reading, deleting and storing into a slice element never
// grow anything.
//
//snvet:alloc-free
func mapReadOK(m map[int]int, s []int, k int) int {
	v, ok := m[k]
	delete(m, k)
	s[k] = v
	s[k]++
	if ok {
		return v + m[k]
	}
	return 0
}

// mapStoreOK stores only on an annotated amortized-growth line.
//
//snvet:alloc-free
func mapStoreOK(m map[int]int, k int) {
	m[k] = 1 //snvet:alloc-ok one entry per key, amortized
}

// boxPointerOK: a pointer fits the interface word, no allocation.
//
//snvet:alloc-free
func boxPointerOK(p *T) {
	sink(p)
}

//snvet:alloc-free
func variadic(p *T) {
	logf("x", p) // want `variadic call allocates its argument slice`
}

// poolMiss allocates only on the annotated slow path.
//
//snvet:alloc-free
func poolMiss() *T {
	if len(pool) == 0 {
		return &T{} //snvet:alloc-ok pool-miss slow path
	}
	t := pool[len(pool)-1]
	pool = pool[:len(pool)-1]
	return t
}

// guarded allocates only on a path that panics.
//
//snvet:alloc-free
func guarded(i, n int) int {
	if i >= n {
		bounds := []int{i, n}
		panic(bounds)
	}
	return i
}

// cold is unannotated: allocfree never inspects it.
func cold() *T {
	return &T{}
}
