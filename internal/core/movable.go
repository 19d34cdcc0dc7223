package core

// Movable is anything that can be handed from a parent task to a child at
// spawn time. A *Promise[T] is Movable (it moves itself); composite
// objects built from many promises — the paper's PromiseCollection — are
// Movable by returning all constituent promises that must travel with the
// object. See collections.Channel for the paper's Listing 4 example: moving
// the channel moves its current producer promise, so the sending end of
// the channel moves between tasks without breaking the abstraction.
//
// The runtime calls Promises exactly once per spawn that moves the object
// (once per spec for AsyncBatch), before validating the move, and uses
// that one result for both validation and transfer. It never retains the
// returned slice past the spawn and never mutates it, so an
// implementation may return an internal slice rather than a copy.
type Movable interface {
	// Promises returns the promises that must move when this object moves.
	Promises() []AnyPromise
}

// Group is a Movable aggregating other Movables, for passing several
// promises or collections to Async as one argument.
type Group []Movable

// Promises returns the union of the members' promises.
func (g Group) Promises() []AnyPromise {
	var out []AnyPromise
	for _, m := range g {
		out = append(out, m.Promises()...)
	}
	return out
}

// Flatten expands a list of Movables into the full list of promises that
// would move, for collections and tests.
func Flatten(moved ...Movable) []AnyPromise {
	if len(moved) == 0 {
		return nil
	}
	if len(moved) == 1 {
		return moved[0].Promises()
	}
	var out []AnyPromise
	for _, m := range moved {
		out = append(out, m.Promises()...)
	}
	return out
}
