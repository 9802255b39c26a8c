package prime

import (
	"math/rand"
	"testing"

	"primelabel/internal/xmltree"
)

// TestMemoStorm drives the label-side memos — the bit-length histogram
// behind MaxLabelBits and the LabelString cache — through every operation
// that writes or removes labels: inserts under power-of-two leaves (the
// Opt2 conversion relabels the parent), wraps (relabel a whole subtree),
// deletes, and Marshal/Unmarshal round trips. Every string is memoized
// before each op, so a write that failed to invalidate one shows up as a
// stale string afterwards.
func TestMemoStorm(t *testing.T) {
	for _, opts := range []Options{
		{PowerOfTwoLeaves: true, TrackOrder: true},
		{PowerOfTwoLeaves: true, ReservedPrimes: -1, Power2Threshold: 3},
		{TrackOrder: true, RecyclePrimes: true},
	} {
		rng := rand.New(rand.NewSource(97))
		l, err := Scheme{Opts: opts}.New(randomTree(rng, 40))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 150; step++ {
			live := xmltree.Elements(l.doc.Root)
			for _, n := range live {
				l.LabelString(n)
			}
			op := rng.Intn(10)
			switch {
			case op < 4: // insert, preferring a leaf parent
				p := live[rng.Intn(len(live))]
				for i := 0; i < 8 && !p.IsLeaf(); i++ {
					p = live[rng.Intn(len(live))]
				}
				idx := rng.Intn(len(p.ElementChildren()) + 1)
				if _, err := l.InsertChildAt(p, idx, xmltree.NewElement("n")); err != nil {
					t.Fatalf("opts %+v step %d insert: %v", opts, step, err)
				}
			case op < 7: // wrap
				target := live[1+rng.Intn(len(live)-1)]
				if _, err := l.WrapNode(target, xmltree.NewElement("w")); err != nil {
					t.Fatalf("opts %+v step %d wrap: %v", opts, step, err)
				}
			case op < 9: // delete
				if len(live) < 10 {
					continue
				}
				if err := l.Delete(live[1+rng.Intn(len(live)-1)]); err != nil {
					t.Fatalf("opts %+v step %d delete: %v", opts, step, err)
				}
			default:
				l = roundTrip(t, l)
			}
			assertMemos(t, l)
			if err := l.Check(); err != nil {
				t.Fatalf("opts %+v step %d: %v", opts, step, err)
			}
		}
	}
}

// assertMemos recomputes MaxLabelBits and every label string from scratch.
func assertMemos(t *testing.T, l *Labeling) {
	t.Helper()
	maxBits := 0
	for _, n := range xmltree.Elements(l.doc.Root) {
		maxBits = max(maxBits, l.LabelOf(n).BitLen())
		want := l.LabelOf(n).String()
		if got := l.LabelString(n); got != want {
			t.Fatalf("LabelString(%s) = %s, want %s", xmltree.PathTo(n), got, want)
		}
		if got := string(l.AppendLabel([]byte("x"), n)); got != "x"+want {
			t.Fatalf("AppendLabel(%s) = %s, want x%s", xmltree.PathTo(n), got, want)
		}
	}
	if got := l.MaxLabelBits(); got != maxBits {
		t.Fatalf("MaxLabelBits = %d, brute force %d", got, maxBits)
	}
}

// TestLabelStringUnlabeled covers the miss path.
func TestLabelStringUnlabeled(t *testing.T) {
	doc, _ := buildTree(t)
	l, err := Scheme{}.New(doc)
	if err != nil {
		t.Fatal(err)
	}
	ghost := xmltree.NewElement("ghost")
	if got := l.LabelString(ghost); got != "" {
		t.Errorf("unlabeled LabelString = %q, want empty", got)
	}
	if got := string(l.AppendLabel([]byte("x"), ghost)); got != "x" {
		t.Errorf("unlabeled AppendLabel appended %q", got[1:])
	}
}

// TestAppendLabelBig covers labels past 64 bits, which AppendLabel copies
// from the memoized string: a 30-deep chain multiplies 30 primes.
func TestAppendLabelBig(t *testing.T) {
	root := xmltree.NewElement("r")
	leaf := root
	for i := 0; i < 30; i++ {
		c := xmltree.NewElement("c")
		if err := leaf.AppendChild(c); err != nil {
			t.Fatal(err)
		}
		leaf = c
	}
	l, err := Scheme{}.New(xmltree.NewDocument(root))
	if err != nil {
		t.Fatal(err)
	}
	if bits := l.LabelOf(leaf).BitLen(); bits <= 64 {
		t.Fatalf("leaf label has %d bits, want more than 64", bits)
	}
	assertMemos(t, l)
}
