// Package annot implements PaSh's parallelizability classes (§3.1), the
// lightweight annotation language of §3.2 / Appendix A, and the
// standard library of annotation records for the POSIX and GNU
// Coreutils commands. The command registry (internal/commands) files
// each record in its name's entry and classifies invocations by it.
package annot

import "fmt"

// Class is a parallelizability class (§3.1, Tab. 1). Classes are ordered
// in ascending difficulty of parallelization: every stateless command is
// also pure, so synchronization mechanisms for a superclass work for its
// subclasses.
type Class int

const (
	// Stateless (S): operates on individual lines without maintaining
	// state across them; a pure map/filter. Outputs concatenate.
	Stateless Class = iota
	// Pure (P): functionally pure but keeps internal state across the
	// whole pass (sort, wc, uniq). Parallelizable via map + aggregate.
	Pure
	// NonParallelizable (N): pure, but internal state depends on prior
	// state in non-trivial ways (sha1sum). Not data-parallelizable on a
	// single input, though parallelizable across independent inputs.
	NonParallelizable
	// SideEffectful (E): interacts with the environment (filesystem,
	// network, kernel state). Never parallelized by PaSh.
	SideEffectful
)

// String returns the one-letter class name used throughout the paper.
func (c Class) String() string {
	switch c {
	case Stateless:
		return "S"
	case Pure:
		return "P"
	case NonParallelizable:
		return "N"
	case SideEffectful:
		return "E"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// LongString returns the spelled-out class name used in the DSL.
func (c Class) LongString() string {
	switch c {
	case Stateless:
		return "stateless"
	case Pure:
		return "pure"
	case NonParallelizable:
		return "non-parallelizable"
	case SideEffectful:
		return "side-effectful"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass parses either the one-letter or spelled-out class name.
func ParseClass(s string) (Class, error) {
	switch s {
	case "S", "stateless":
		return Stateless, nil
	case "P", "pure":
		return Pure, nil
	case "N", "non-parallelizable", "nonparallelizable":
		return NonParallelizable, nil
	case "E", "side-effectful", "sideeffectful":
		return SideEffectful, nil
	}
	return 0, fmt.Errorf("annot: unknown class %q", s)
}

// LeastParallelizable returns the less parallelizable of a and b: the
// class of a command is the class of its least parallelizable flag (§3.2).
func LeastParallelizable(a, b Class) Class {
	if b > a {
		return b
	}
	return a
}

// DataParallelizable reports whether PaSh's transformations apply to the
// class at all.
func (c Class) DataParallelizable() bool {
	return c == Stateless || c == Pure
}
