package sim

// FreeList recycles records of type T. Components that hand the engine a
// long-lived func(any) and a record per event (AfterArg,
// ScheduleCancelableArg) take records from a FreeList and return them
// once the event fired, so the steady state allocates nothing. Get
// returns a record with its previous contents, or a new zero record;
// callers overwrite it. A FreeList is not safe for concurrent use, and
// unlike sync.Pool it never drops records.
type FreeList[T any] struct{ free []*T }

// Get takes a record from the list.
//
//snvet:alloc-free
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T) //snvet:alloc-ok amortized record-pool growth
	}
	t := f.free[n-1]
	f.free = f.free[:n-1]
	return t
}

// Put returns a record to the list. Nothing may use t afterwards.
//
//snvet:alloc-free
func (f *FreeList[T]) Put(t *T) {
	f.free = append(f.free, t) //snvet:alloc-ok amortized free-list growth
}
