package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"primelabel/internal/labeling/prime"
	"primelabel/internal/server/api"
	"primelabel/internal/xmltree"
	"primelabel/internal/xpath"
)

// primeOptions is the labeling configuration labeld derives from
// loadRequest: prime labels with order tracking, no optimizations.
var primeOptions = prime.Options{TrackOrder: true}

// oracle holds the expected answers for the unmodified corpus: node sets
// from the label-free xpath.TreeEval, labels from the benchmark's own prime
// labeling of the same tree.
type oracle struct {
	want [][]api.NodeRef // per query, in document order
}

func newOracle(in *inputs) (*oracle, error) {
	lab, err := (prime.Scheme{Opts: primeOptions}).New(in.doc)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	for _, q := range in.queries {
		nodes, err := xpath.TreeEvalString(in.doc, q)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q, err)
		}
		refs := make([]api.NodeRef, len(nodes))
		for i, n := range nodes {
			refs[i] = api.NodeRef{ID: in.row[n], Path: tagPath(n), Label: lab.LabelOf(n).String(), Text: n.Text()}
		}
		o.want = append(o.want, refs)
	}
	return o, nil
}

// tagPath is the root-to-node tag path, built independently of
// xmltree.PathTo.
func tagPath(n *xmltree.Node) string {
	var names []string
	for ; n != nil; n = n.Parent {
		names = append(names, n.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, "/")
}

// verdict is the outcome of checking every timed request of a run.
type verdict struct {
	attempted int
	failed    int
	messages  []string // first few failures, for the report
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.messages) < 10 {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

// verify checks every answer of both phases. It runs after the timed
// phases: nothing here is on the clock.
func verify(w *workload, in *inputs, phases ...*phaseResult) *verdict {
	v := &verdict{}
	o, err := newOracle(in)
	if err != nil {
		v.attempted++
		v.fail("oracle: %v", err)
		return v
	}
	var m *updateModel
	if w.writer >= 0 {
		if m, err = newUpdateModel(in); err != nil {
			v.attempted++
			v.fail("model: %v", err)
			return v
		}
	}
	for _, p := range phases {
		if p == nil {
			continue
		}
		v.attempted += len(p.samples)
		if m != nil {
			checkUpdates(v, in, o, m, p)
			continue
		}
		checkStatic(v, in, o, p)
	}
	return v
}

// transportOK reports (and counts) a request that failed before an answer
// could be checked.
func transportOK(v *verdict, in *inputs, s *sample) bool {
	if s.err != nil {
		v.fail("%s %s: %v", s.kind, queryName(in, s), s.err)
		return false
	}
	if s.status != http.StatusOK {
		v.fail("%s %s: status %d: %.200s", s.kind, queryName(in, s), s.status, s.body)
		return false
	}
	return true
}

func queryName(in *inputs, s *sample) string {
	if s.kind.isRead() {
		return in.ids[s.q]
	}
	return fmt.Sprint(s.q)
}

// checkStatic checks a read-only phase: every body of one (kind, query) is
// expected byte-identical, so each distinct body is decoded and checked
// once and its verdict applies to every response that hashed the same.
func checkStatic(v *verdict, in *inputs, o *oracle, p *phaseResult) {
	verdicts := make(map[bodyKey]error)
	for i := range p.samples {
		s := &p.samples[i]
		if s.body == nil {
			continue
		}
		k := bodyKey{s.kind, s.q, s.hash}
		if _, done := verdicts[k]; !done {
			verdicts[k] = checkRead(s, o.want[s.q], 0)
		}
	}
	for i := range p.samples {
		s := &p.samples[i]
		if !transportOK(v, in, s) {
			continue
		}
		err, ok := verdicts[bodyKey{s.kind, s.q, s.hash}]
		if !ok {
			err = fmt.Errorf("response body was not kept")
		}
		if err != nil {
			v.fail("%s %s: %v", s.kind, in.ids[s.q], err)
		}
	}
}

// checkRead decodes one read response and compares it with want at
// generation gen.
func checkRead(s *sample, want []api.NodeRef, gen uint64) error {
	switch s.kind {
	case kindCount:
		var r api.QueryResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return err
		}
		if r.Generation != gen || r.Count != len(want) || len(r.Nodes) != 0 {
			return fmt.Errorf("count mode: got generation %d count %d (%d nodes), want generation %d count %d",
				r.Generation, r.Count, len(r.Nodes), gen, len(want))
		}
		return nil
	case kindFull:
		var r api.QueryResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			return err
		}
		if r.Generation != gen || r.Count != len(want) {
			return fmt.Errorf("got generation %d count %d, want generation %d count %d", r.Generation, r.Count, gen, len(want))
		}
		return sameNodes(r.Nodes, want)
	case kindStream:
		sc := bufio.NewScanner(bytes.NewReader(s.body))
		sc.Buffer(nil, len(s.body)+1)
		if !sc.Scan() {
			return fmt.Errorf("stream: no header line")
		}
		var h api.StreamHeader
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			return fmt.Errorf("stream header: %w", err)
		}
		if h.Generation != gen || h.Count != len(want) {
			return fmt.Errorf("stream header: got generation %d count %d, want generation %d count %d", h.Generation, h.Count, gen, len(want))
		}
		var nodes []api.NodeRef
		done := false
		for sc.Scan() {
			var c api.StreamChunk
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				return fmt.Errorf("stream chunk: %w", err)
			}
			if done {
				return fmt.Errorf("stream: chunk after the done chunk")
			}
			nodes = append(nodes, c.Nodes...)
			done = c.Done
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if !done {
			return fmt.Errorf("stream: no done chunk")
		}
		return sameNodes(nodes, want)
	}
	return fmt.Errorf("not a read: %s", s.kind)
}

func sameNodes(got, want []api.NodeRef) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("node %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// updateModel is the state an ordered-update run's writes are replayed
// onto: a clone of the corpus with the benchmark's own prime labeling. It
// carries over from one phase to the next, as labeld's document does.
type updateModel struct {
	lab   *prime.Labeling
	elems []*xmltree.Node // rows of the unmodified corpus
	gen   uint64
	// inserted is the speech inserted by the last write, nil after its
	// delete; insertedRow is its row and insertedPos its index in
	// inputs.updates.
	inserted    *xmltree.Node
	insertedRow int
	insertedPos int
}

func newUpdateModel(in *inputs) (*updateModel, error) {
	doc := in.doc.Clone()
	lab, err := (prime.Scheme{Opts: primeOptions}).New(doc)
	if err != nil {
		return nil, err
	}
	return &updateModel{lab: lab, elems: xmltree.Elements(doc.Root)}, nil
}

// apply replays one acknowledged write and returns the relabel count and
// node id labeld must have answered.
func (m *updateModel) apply(in *inputs, s *sample) (relabeled, node int, err error) {
	switch s.kind {
	case kindInsert:
		if m.inserted != nil {
			return 0, 0, fmt.Errorf("insert while the previous speech is still in place")
		}
		pos := in.updates[s.q]
		parent := m.elems[pos.parent]
		// The new speech takes the row of the speech it displaces.
		node = in.row[in.elems[pos.parent].ElementChildren()[pos.index]]
		n := xmltree.NewElement("speech")
		if relabeled, err = m.lab.InsertChildAt(parent, rawChildIndex(parent, pos.index), n); err != nil {
			return 0, 0, err
		}
		m.inserted, m.insertedRow, m.insertedPos = n, node, s.q
	case kindDelete:
		if m.inserted == nil || s.q != m.insertedRow {
			return 0, 0, fmt.Errorf("delete of row %d does not target the inserted speech", s.q)
		}
		if err := m.lab.Delete(m.inserted); err != nil {
			return 0, 0, err
		}
		m.inserted, node = nil, -1
	}
	m.gen++
	return relabeled, node, nil
}

// readTask is one ordered-update read to check: at generation gen, the
// corpus held the speech inserted at inputs.updates[pos], or no insert
// when pos is -1.
type readTask struct {
	s   *sample
	gen uint64
	pos int
}

// checkUpdates checks one ordered-update phase. Each write's generation,
// relabel count and node id must match the model's after replaying it, and
// each read must count what xpath.TreeEval counts on the corpus as it was
// at the read's generation.
func checkUpdates(v *verdict, in *inputs, o *oracle, m *updateModel, p *phaseResult) {
	var writes []*sample
	byGen := make(map[uint64][]*sample)
	for i := range p.samples {
		s := &p.samples[i]
		if !transportOK(v, in, s) {
			continue
		}
		if !s.kind.isRead() {
			writes = append(writes, s)
			continue
		}
		var r api.QueryResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			v.fail("%s %s: %v", s.kind, in.ids[s.q], err)
			continue
		}
		byGen[r.Generation] = append(byGen[r.Generation], s)
	}
	var tasks []readTask
	addReads := func() {
		pos := -1
		if m.inserted != nil {
			pos = m.insertedPos
		}
		for _, s := range byGen[m.gen] {
			tasks = append(tasks, readTask{s, m.gen, pos})
		}
		delete(byGen, m.gen)
	}
	addReads()
	for _, s := range writes {
		var r api.UpdateResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			v.fail("%s: %v", s.kind, err)
			break
		}
		relabeled, node, err := m.apply(in, s)
		if err != nil {
			v.fail("replaying %s: %v", s.kind, err)
			break
		}
		if r.Generation != m.gen || r.Relabeled != relabeled || r.Node != node {
			v.fail("%s: got generation %d relabeled %d node %d, want generation %d relabeled %d node %d",
				s.kind, r.Generation, r.Relabeled, r.Node, m.gen, relabeled, node)
		}
		addReads()
	}
	for g, reads := range byGen {
		for _, s := range reads {
			v.fail("%s %s: generation %d was never acknowledged to the writer", s.kind, in.ids[s.q], g)
		}
	}
	for i, err := range checkReads(in, o, tasks) {
		if err != nil {
			t := tasks[i]
			v.fail("%s %s at generation %d: %v", t.s.kind, in.ids[t.s.q], t.gen, err)
		}
	}
}

// checkReads checks ordered-update reads on one worker per CPU. Each
// worker evaluates on its own clone of the corpus, inserting a task's
// speech for the evaluation and removing it after.
func checkReads(in *inputs, o *oracle, tasks []readTask) []error {
	errs := make([]error, len(tasks))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			doc := in.doc.Clone()
			elems := xmltree.Elements(doc.Root)
			for i := w; i < len(tasks); i += workers {
				t := tasks[i]
				want := o.want[t.s.q]
				if t.pos >= 0 {
					pos := in.updates[t.pos]
					parent := elems[pos.parent]
					n := xmltree.NewElement("speech")
					if err := parent.InsertChildAt(rawChildIndex(parent, pos.index), n); err != nil {
						errs[i] = err
						continue
					}
					nodes, err := xpath.TreeEvalString(doc, in.queries[t.s.q])
					n.Detach()
					if err != nil {
						errs[i] = err
						continue
					}
					want = make([]api.NodeRef, len(nodes)) // count mode compares only the count
				}
				errs[i] = checkRead(t.s, want, t.gen)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// rawChildIndex maps an index among element children to an index among
// all children, the way labeld positions an insert.
func rawChildIndex(parent *xmltree.Node, elemIdx int) int {
	if elemIdx <= 0 {
		return 0
	}
	seen := 0
	for i, c := range parent.Children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		seen++
		if seen == elemIdx {
			return i + 1
		}
	}
	return len(parent.Children)
}
