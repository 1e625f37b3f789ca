package datalog

import "encoding/binary"

// Packed tuple keys. The engine dedups tuples and probes join indexes on
// every insert and every lookup, so key construction is the hottest
// operation in bottom-up evaluation. Universe elements are small
// non-negative ints (they live in [0, db.N)), which lets us encode a whole
// tuple as a single uint64 in essentially every realistic workload and
// fall back to a raw-byte string only for extreme arities or element
// ranges.
//
// Packed layout (the common case): pick the minimal element width
// w ∈ {4, 8, 16, 32} bits that holds the tuple's largest element, and pack
// the elements little-endian into the low 62 bits with a 2-bit width tag
// on top. The width is a pure function of the tuple's contents, so equal
// tuples always produce equal keys; within one map all keys belong to
// tuples of the same arity (relations, per-mask indexes and per-predicate
// stage/provenance tables are all arity-homogeneous), so distinct tuples
// with the same tag always differ in some fixed-width field. Capacity by
// width: 15 elements < 16, 7 elements < 256, 3 elements < 65536,
// 1 element < 2^32.
//
// Spill layout (the escape hatch): tuples that exceed the packed capacity
// — arity·w > 62 bits, or an element outside [0, 2^32) — are encoded as a
// string of fixed 8-byte little-endian words. Spill keys are always
// non-empty strings while packed keys always carry an empty string, so the
// two modes can never collide inside one map.
//
// tupleKey is comparable and therefore usable directly as a Go map key;
// in packed mode it costs no allocation at all.
type tupleKey struct {
	packed uint64
	spill  string
}

// TupleKey is the exported name of the canonical packed tuple key, so
// sibling packages (internal/stream's distinct sets and symmetric-hash-join
// tables) can key maps on tuples with the same zero-allocation encoding the
// engine uses, without re-deriving the packing scheme.
type TupleKey = tupleKey

// KeyOf returns the canonical comparable key of a tuple. Keys of
// same-arity tuples are equal iff the tuples are equal.
func KeyOf(t Tuple) TupleKey { return keyOf(t) }

// KeyProjected returns the canonical key of the subsequence of t selected
// by the column mask (bit i set selects position i). As with KeyOf, the
// injectivity guarantee holds within a fixed (arity, mask) pair.
func KeyProjected(t Tuple, mask uint64) TupleKey { return keyProjected(t, mask) }

// packedBits is the payload width of a packed key; the top two bits hold
// the element-width tag.
const packedBits = 62

// packParams returns the element width and tag for a tuple of n elements
// whose maximum is max, or ok=false when the tuple does not fit packed.
func packParams(max, n int) (w uint, tag uint64, ok bool) {
	switch {
	case max < 1<<4:
		w, tag = 4, 0
	case max < 1<<8:
		w, tag = 8, 1
	case max < 1<<16:
		w, tag = 16, 2
	case max < 1<<32:
		w, tag = 32, 3
	default:
		return 0, 0, false
	}
	if uint(n)*w > packedBits {
		return 0, 0, false
	}
	return w, tag, true
}

// keyOf returns the canonical key of a tuple.
func keyOf(t Tuple) tupleKey {
	max := 0
	for _, x := range t {
		if x < 0 {
			return spillKey(t, 0, false)
		}
		if x > max {
			max = x
		}
	}
	w, tag, ok := packParams(max, len(t))
	if !ok {
		return spillKey(t, 0, false)
	}
	k := tag << packedBits
	shift := uint(0)
	for _, x := range t {
		k |= uint64(x) << shift
		shift += w
	}
	return tupleKey{packed: k}
}

// keyProjected returns the canonical key of the subsequence of t selected
// by the column mask. Within one index map the mask (and hence the
// projected arity) is fixed, so the same injectivity argument applies.
func keyProjected(t Tuple, mask uint64) tupleKey {
	max, n := 0, 0
	for i, x := range t {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if x < 0 {
			return spillKey(t, mask, true)
		}
		if x > max {
			max = x
		}
		n++
	}
	w, tag, ok := packParams(max, n)
	if !ok {
		return spillKey(t, mask, true)
	}
	k := tag << packedBits
	shift := uint(0)
	for i, x := range t {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		k |= uint64(x) << shift
		shift += w
	}
	return tupleKey{packed: k}
}

// spillKey builds the raw-byte fallback key; masked selects the projected
// variant.
func spillKey(t Tuple, mask uint64, masked bool) tupleKey {
	n := len(t)
	if masked {
		n = 0
		for i := range t {
			if mask&(1<<uint(i)) != 0 {
				n++
			}
		}
	}
	b := make([]byte, 8*n)
	j := 0
	for i, x := range t {
		if masked && mask&(1<<uint(i)) == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(b[8*j:], uint64(int64(x)))
		j++
	}
	return tupleKey{spill: string(b)}
}

// unpackKey reads back the tuple of the given arity a packed key encodes.
func unpackKey(packed uint64, arity int) Tuple {
	w := uint(4) << (packed >> packedBits)
	t := make(Tuple, arity)
	for i := range t {
		t[i] = int(packed >> (uint(i) * w) & (1<<w - 1))
	}
	return t
}
