package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one benchmark-side span. Spans of one request share its
// X-Trace-Id; Parent is the id of the span that caused this one (0 for
// a root).
type span struct {
	Trace    string           `json:"trace"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"`
	DurUS    float64          `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// spanLog keeps the run's spans in memory until the run ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(trace string, parent int, name string, start time.Time, dur time.Duration) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartUS: start.UnixMicro(), DurUS: float64(dur) / float64(time.Microsecond)})
	return id
}

// addRequests records every traced request as a client span with its
// httptrace phases as children, and the server's recorded span tree
// under the client's wait phase.
func (l *spanLog) addRequests(rs []*result) {
	for _, res := range rs {
		if res.err != nil || res.firstByte.IsZero() {
			continue
		}
		t := res.traceID
		res.spanID = l.add(t, 0, "client.request", res.sent, res.done.Sub(res.sent))
		l.add(t, res.spanID, "client.connect", res.sent, res.gotConn.Sub(res.sent))
		l.add(t, res.spanID, "client.write", res.gotConn, res.wrote.Sub(res.gotConn))
		wait := l.add(t, res.spanID, "client.wait", res.wrote, res.firstByte.Sub(res.wrote))
		l.add(t, res.spanID, "client.body_read", res.firstByte, res.done.Sub(res.firstByte))
		if res.srv != nil {
			l.addTree(t, wait, res.srv.Root)
		}
	}
}

func (l *spanLog) addTree(trace string, parent int, n *obs.Node) {
	if n == nil {
		return
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: n.Name,
		StartUS: n.StartUS, DurUS: n.DurationMS * 1000, Counters: n.Counters})
	for _, c := range n.Children {
		l.addTree(trace, id, c)
	}
}

// write stores the spans as gzipped JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconciled is the traced window broken into layers.
type reconciled struct {
	ttfb, body, transport, root, self, traceBytes []float64
	connNew, unreconciled                         int
}

// slackUS absorbs the microsecond rounding of the server's span export.
const slackUS = 20

// reconcile splits each traced request's client time into transport and
// the server's root span, and the root span into its engine children
// and the service's self time. A request whose phases do not add up is
// counted and the first few are reported: client phases out of order,
// or a root span that does not lie inside the client's interval.
func (b *bench) reconcile(rs []*result) reconciled {
	var out reconciled
	for _, res := range rs {
		if res.err != nil || res.srv == nil || res.srv.Root == nil {
			continue
		}
		clientMS := ms(res.done.Sub(res.sent))
		root := res.srv.Root
		out.ttfb = append(out.ttfb, ms(res.firstByte.Sub(res.sent)))
		out.body = append(out.body, ms(res.done.Sub(res.firstByte)))
		out.root = append(out.root, root.DurationMS)
		out.transport = append(out.transport, clientMS-root.DurationMS)
		out.traceBytes = append(out.traceBytes, float64(res.srv.Bytes))
		if !res.reused {
			out.connNew++
		}
		self := root.DurationMS - childCoverMS(root)
		out.self = append(out.self, self)

		rootStart, rootEnd := root.StartUS, root.StartUS+int64(root.DurationMS*1000)
		var problem string
		switch {
		case res.gotConn.IsZero() || res.wrote.IsZero() || res.firstByte.IsZero():
			problem = "missing client phase"
		case res.gotConn.Before(res.sent) || res.wrote.Before(res.gotConn) ||
			res.firstByte.Before(res.wrote) || res.done.Before(res.firstByte):
			problem = "client phases out of order"
		case rootStart+slackUS < res.sent.UnixMicro():
			problem = "server root span starts before the client sent"
		case rootEnd > res.firstByte.UnixMicro()+slackUS:
			problem = "server root span ends after the first response byte"
		case self < -float64(slackUS)/1000:
			problem = "engine spans exceed the root span"
		}
		if problem != "" {
			out.unreconciled++
			if out.unreconciled <= 5 {
				fmt.Fprintf(b.log, "perfbench: trace %s (%s) does not reconcile: %s (client %.3f ms, root %.3f ms)\n",
					res.traceID, res.r.kind, problem, clientMS, root.DurationMS)
			}
		}
	}
	return out
}

// childCoverMS is the part of n's interval its direct children cover
// (their union, so concurrent children are not counted twice).
func childCoverMS(n *obs.Node) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range n.Children {
		a := float64(c.StartUS) / 1000
		ivs = append(ivs, iv{a, a + c.DurationMS})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func sortByStart(rs []*result) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sent.Before(rs[j].sent) })
}
