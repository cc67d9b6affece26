package intset

// Mark is a bitmap over an ID universe [0, n): the form an operand takes
// when it stays fixed while an inner loop checks many other slices against
// it. Marking it costs one pass over its elements; every later membership
// test is one word test, where a merge would rescan the operand each time.
// Reset costs no more than the marking did. The zero Mark has an empty
// universe; NewMark allocates one.
type Mark struct {
	words []uint64
	// parts are the slices Set marked, n their total length, and [lo, hi)
	// the words they span: Reset clears that span when it is no longer
	// than n, else it walks the parts.
	parts  [][]uint32
	n      int
	lo, hi uint32
}

// NewMark returns an empty Mark over the IDs [0, n): n/8 bytes of bitmap.
// It allocates, so callers make one per operand and reuse it.
func NewMark(n int) Mark {
	return Mark{words: make([]uint64, (n+63)>>6), lo: ^uint32(0)}
}

// Set marks every element of the sorted slice s, each of which must lie in
// the universe. s must hold the same elements until the next Reset, which
// may read it again.
//
//ohmlint:hotpath
func (m *Mark) Set(s []uint32) {
	if len(s) == 0 {
		return
	}
	m.parts = append(m.parts, s)
	m.n += len(s)
	m.lo, m.hi = min(m.lo, s[0]>>6), max(m.hi, s[len(s)-1]>>6+1)
	for _, x := range s {
		m.words[x>>6] |= 1 << (x & 63)
	}
}

// Reset unmarks everything.
//
//ohmlint:hotpath
func (m *Mark) Reset() {
	if m.lo < m.hi && int(m.hi-m.lo) <= m.n {
		clear(m.words[m.lo:m.hi])
	} else {
		for _, s := range m.parts {
			for _, x := range s {
				m.words[x>>6] = 0
			}
		}
	}
	m.parts, m.n, m.lo, m.hi = m.parts[:0], 0, ^uint32(0), 0
}

// Has reports whether x is marked.
//
//ohmlint:hotpath
func (m *Mark) Has(x uint32) bool { return m.words[x>>6]&(1<<(x&63)) != 0 }

// Count returns how many elements of s are marked. A floor is a suffix:
// Count(s[k:]) counts the members above s[k-1].
//
//ohmlint:hotpath
func (m *Mark) Count(s []uint32) int {
	n := 0
	for _, x := range s {
		n += int(m.words[x>>6] >> (x & 63) & 1)
	}
	return n
}

// Filter stores into dst the elements of s that are marked (members) or
// that are not (!members), in order, and returns it. dst may be s[:0] — the
// write cursor never passes the read cursor — so a list can be filtered in
// its own buffer; any other dst must not overlap s.
//
//ohmlint:hotpath
func (m *Mark) Filter(s []uint32, members bool, dst []uint32) []uint32 {
	flip := uint64(1)
	if members {
		flip = 0
	}
	if cap(dst) < len(s) {
		dst = append(dst[:0], s...) // grows dst once; the loop rewrites it
	}
	dst = dst[:len(s)]
	k := 0
	for _, x := range s {
		dst[k] = x
		k += int(m.words[x>>6]>>(x&63)&1 ^ flip)
	}
	return dst[:k]
}
