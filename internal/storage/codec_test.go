package storage

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datalog"
)

// elemCorpus is a boundary-heavy element sample: every byte-length
// transition in both signs, plus the extremes.
var elemCorpus = []int{
	math.MinInt64, math.MinInt64 + 1,
	-(1 << 56), -(1<<56 - 1),
	-65537, -65536, -65535, -257, -256, -255, -2, -1,
	0, 1, 2, 15, 16, 255, 256, 257, 65535, 65536, 65537,
	1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32, 1 << 56,
	math.MaxInt64 - 1, math.MaxInt64,
}

func TestElemRoundTrip(t *testing.T) {
	for _, x := range elemCorpus {
		enc := AppendElem(nil, x)
		got, rest, err := DecodeElem(enc)
		if err != nil {
			t.Fatalf("decode(%d): %v", x, err)
		}
		if got != x || len(rest) != 0 {
			t.Fatalf("decode(encode(%d)) = %d, rest %d bytes", x, got, len(rest))
		}
	}
}

func TestElemOrderPreserving(t *testing.T) {
	for _, x := range elemCorpus {
		for _, y := range elemCorpus {
			bx, by := AppendElem(nil, x), AppendElem(nil, y)
			want := 0
			if x < y {
				want = -1
			} else if x > y {
				want = 1
			}
			if got := bytes.Compare(bx, by); got != want {
				t.Fatalf("compare(enc %d, enc %d) = %d, want %d (enc %x vs %x)", x, y, got, want, bx, by)
			}
		}
	}
}

func TestElemAdjacentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 5000; i++ {
		x := int(rng.Int63()) - int(rng.Int63())
		if x == math.MaxInt64 {
			x--
		}
		a, b := AppendElem(nil, x), AppendElem(nil, x+1)
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("enc(%d) %x !< enc(%d) %x", x, a, x+1, b)
		}
	}
}

func TestElemCompactForUniverse(t *testing.T) {
	// Universe elements live in [0, N) with small N; they must stay at
	// two bytes so WAL records and checkpoint runs stay dense.
	for x := 0; x < 256; x++ {
		if n := len(AppendElem(nil, x)); n != 2 {
			t.Fatalf("enc(%d) is %d bytes, want 2", x, n)
		}
	}
}

func TestElemRejectsNonCanonical(t *testing.T) {
	bad := [][]byte{
		{},
		{0x80},                            // the zero tag is unused
		{0x00},                            // tag below the negative range
		{0xFF},                            // tag above the positive range
		{0x82, 0x00, 0x05},                // leading zero payload: must be 0x81 0x05
		{0x7E, 0xFF, 0x05},                // droppable 0xFF: must be 0x7F 0x05
		{0x82, 0x01},                      // truncated payload
		{0x89, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // 9-byte positive
		{0x88, 0x80, 0, 0, 0, 0, 0, 0, 0}, // > MaxInt64
		{0x78, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // "negative" without sign bit
	}
	for _, b := range bad {
		if x, _, err := DecodeElem(b); err == nil {
			t.Fatalf("DecodeElem(%x) accepted as %d, want error", b, x)
		}
	}
}

func TestTupleRoundTripAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randTuple := func(arity int) datalog.Tuple {
		tup := make(datalog.Tuple, arity)
		for i := range tup {
			switch rng.Intn(4) {
			case 0:
				tup[i] = rng.Intn(16)
			case 1:
				tup[i] = rng.Intn(1 << 20)
			case 2:
				tup[i] = -rng.Intn(1 << 20)
			default:
				tup[i] = int(rng.Uint64() >> 1)
			}
		}
		return tup
	}
	for arity := 1; arity <= 6; arity++ {
		for i := 0; i < 500; i++ {
			a, b := randTuple(arity), randTuple(arity)
			ea, eb := AppendTuple(nil, a), AppendTuple(nil, b)
			da, err := DecodeTuple(ea, arity)
			if err != nil {
				t.Fatalf("decode %v: %v", a, err)
			}
			if CompareTuples(da, a) != 0 {
				t.Fatalf("round trip %v -> %v", a, da)
			}
			if got, want := bytes.Compare(ea, eb), CompareTuples(a, b); got != want {
				t.Fatalf("byte order of %v vs %v = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestTuplePrefixSortsFirst(t *testing.T) {
	a := datalog.Tuple{3, 7}
	b := datalog.Tuple{3, 7, 0}
	if bytes.Compare(AppendTuple(nil, a), AppendTuple(nil, b)) != -1 {
		t.Fatal("prefix tuple does not sort before its extension")
	}
	if CompareTuples(a, b) != -1 || CompareTuples(b, a) != 1 || CompareTuples(a, a) != 0 {
		t.Fatal("CompareTuples prefix handling wrong")
	}
}

func TestDecodeTupleArityCheck(t *testing.T) {
	enc := AppendTuple(nil, datalog.Tuple{1, 2, 3})
	if _, err := DecodeTuple(enc, 2); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if tup, err := DecodeTuple(enc, -1); err != nil || len(tup) != 3 {
		t.Fatalf("arity -1 decode: %v %v", tup, err)
	}
}
