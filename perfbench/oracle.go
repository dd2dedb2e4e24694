package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"trusthmd/pkg/detector"
)

// verdict is the part of a served verdict the oracle compares.
type verdict struct {
	Prediction int     `json:"prediction"`
	Entropy    float64 `json:"entropy"`
	Decision   string  `json:"decision"`
}

// oracle recomputes verdicts in-process from the same gob the daemons
// serve: Assess for vectors, a fresh Session replay for stream sessions.
type oracle struct {
	det  *detector.Detector
	memo map[int]detector.Result // window index -> Assess result
}

func newOracle(det *detector.Detector) *oracle {
	return &oracle{det: det, memo: map[int]detector.Result{}}
}

func (o *oracle) assess(p *plan, i int) (detector.Result, error) {
	if r, ok := o.memo[i]; ok {
		return r, nil
	}
	r, err := o.det.Assess(p.windows[i].vec)
	if err != nil {
		return detector.Result{}, err
	}
	o.memo[i] = r
	return r, nil
}

func same(got verdict, want detector.Result) bool {
	return got.Prediction == want.Prediction && got.Entropy == want.Entropy &&
		got.Decision == want.Decision.String()
}

// verdictCheck is the oracle's verdict on a load: how many operations
// returned a wrong verdict, and the trust tallies over every delivered
// verdict (the shares of zero-day and known-app verdicts that are reject).
type verdictCheck struct {
	badOps                 int
	unknown, unknownReject int
	known, knownReject     int
	errs                   []string
}

func (c *verdictCheck) bad(n int, format string, args ...any) {
	c.badOps += n
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check compares every retained response with the oracle. A blob stands
// for b.n operations that got byte-identical answers, so a wrong blob
// fails all of them and a right one counts all of their verdicts.
func (o *oracle) check(p *plan, blobs map[blobKey]*blob) (verdictCheck, error) {
	var c verdictCheck
	for _, b := range blobs {
		op := &p.ops[b.op]
		got, err := parseVerdicts(op.kind, b.raw)
		if err != nil {
			c.bad(b.n, "op %d: %v", b.op, err)
			continue
		}
		if len(got) != len(op.items) {
			c.bad(b.n, "op %d: %d verdicts for %d windows", b.op, len(got), len(op.items))
			continue
		}
		want, err := o.expected(p, op)
		if err != nil {
			return c, err
		}
		ok := true
		for j := range got {
			if !same(got[j], want[j]) {
				c.bad(b.n, "op %d verdict %d: got %+v, oracle %+v", b.op, j, got[j], want[j])
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, it := range op.items {
			rej := got[j].Decision == detector.Reject.String()
			if p.windows[it].unknown {
				c.unknown += b.n
				if rej {
					c.unknownReject += b.n
				}
			} else {
				c.known += b.n
				if rej {
					c.knownReject += b.n
				}
			}
		}
	}
	return c, nil
}

// expected returns the oracle's verdicts for one operation's windows.
func (o *oracle) expected(p *plan, op *op) ([]detector.Result, error) {
	out := make([]detector.Result, 0, len(op.items))
	if op.kind == opSession {
		s, err := detector.NewSession(o.det, streamCfg)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		for _, it := range op.items {
			rs, err := s.PushAll(p.windows[it].trace)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
		return out, nil
	}
	for _, it := range op.items {
		r, err := o.assess(p, it)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// parseVerdicts decodes a retained response: one AssessResponse, a
// BatchResponse, or a session's NDJSON decision lines.
func parseVerdicts(kind opKind, raw []byte) ([]verdict, error) {
	switch kind {
	case opAssess:
		var v verdict
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		return []verdict{v}, nil
	case opBatch:
		var b struct {
			Results []verdict `json:"results"`
		}
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, err
		}
		return b.Results, nil
	case opSession:
		var out []verdict
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte{'\n'}) {
			var v struct {
				verdict
				Seq   int    `json:"seq"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, err
			}
			if v.Error != "" || v.Seq != len(out)+1 {
				return nil, fmt.Errorf("stream line %d: %s", len(out)+1, line)
			}
			out = append(out, v.verdict)
		}
		return out, nil
	}
	return nil, fmt.Errorf("op kind %d returns no verdicts", kind)
}
