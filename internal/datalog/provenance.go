package datalog

import (
	"fmt"
	"strings"
)

// Provenance: the engine can record, for every derived tuple, the rule and
// body facts of its first derivation. Because first derivations always use
// body tuples from strictly earlier stages, unfolding them yields a finite
// proof tree — the "why" explanation of a query answer, and the mechanism
// the tests use to extract actual witness paths from the paper's programs.

// Derivation is one rule application: the rule index in Program.Rules and
// the body atom instantiations in body-atom order. The engine keeps
// witnesses packed (see witness.go) and builds Derivations on demand.
type Derivation struct {
	Rule int
	Body []Fact
}

// Fact is a predicate with a tuple.
type Fact struct {
	Pred  string
	Tuple Tuple
}

// String renders E(1,2).
func (f Fact) String() string { return f.Pred + f.Tuple.String() }

// Proof is a derivation tree: leaves are EDB facts (Rule < 0).
type Proof struct {
	Fact     Fact
	Rule     int
	Children []*Proof
}

// IsLeaf reports whether the node is an EDB fact.
func (p *Proof) IsLeaf() bool { return p.Rule < 0 }

// Leaves returns the EDB facts supporting the proof, left to right.
func (p *Proof) Leaves() []Fact {
	if p.IsLeaf() {
		return []Fact{p.Fact}
	}
	var out []Fact
	for _, c := range p.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Size returns the number of rule applications in the tree.
func (p *Proof) Size() int {
	if p.IsLeaf() {
		return 0
	}
	n := 1
	for _, c := range p.Children {
		n += c.Size()
	}
	return n
}

// String renders an indented proof tree.
func (p *Proof) String() string {
	var b strings.Builder
	var walk func(n *Proof, depth int)
	walk = func(n *Proof, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s [edb]\n", n.Fact)
			return
		}
		fmt.Fprintf(&b, "%s [rule %d]\n", n.Fact, n.Rule+1)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}

// Prove unfolds the recorded provenance of a derived tuple into a proof
// tree. Evaluation must have run with TrackProvenance set.
func (res *Result) Prove(p *Program, pred string, t Tuple) (*Proof, error) {
	if res.wit == nil || !res.wit.prov {
		return nil, fmt.Errorf("datalog: evaluation did not track provenance")
	}
	idb := p.IDBs()
	var build func(f Fact) (*Proof, error)
	build = func(f Fact) (*Proof, error) {
		if !idb[f.Pred] {
			return &Proof{Fact: f, Rule: -1}, nil
		}
		d := res.derivationOf(f)
		if d == nil {
			return nil, fmt.Errorf("datalog: no derivation recorded for %s", f)
		}
		node := &Proof{Fact: f, Rule: d.Rule}
		for _, bf := range d.Body {
			c, err := build(bf)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, c)
		}
		return node, nil
	}
	return build(Fact{Pred: pred, Tuple: t})
}

// derivationOf returns the recorded witness of an IDB fact, or nil when
// the fact was not derived.
func (res *Result) derivationOf(f Fact) *Derivation {
	tab, ok := res.wit.tabID[f.Pred]
	if !ok || len(f.Tuple) != res.wit.tabs[tab].arity {
		return nil
	}
	r := res.wit.find(tab, keyOf(f.Tuple), f.Tuple)
	if r == 0 {
		return nil
	}
	return res.wit.derivation(r)
}
