package core

// This file holds the high-water-mark scratch idiom used across the
// hot sense→predict→balance path (DESIGN.md §11): buffers grow to the
// largest size a run demands and are reused verbatim afterwards, so
// steady-state epochs allocate nothing. The grow helpers return stale
// contents on the fast path — callers must overwrite every element.

// grow returns s resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
	}
	return s[:n]
}

// growRows returns s resized to n rows, keeping existing row headers
// (and so each row's backing capacity) where possible. Row contents
// are unspecified; callers re-point or truncate every row.
func growRows[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		grown := make(S, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
		copy(grown, s)
		return grown
	}
	return s[:n]
}
