package longitudinal

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/resultset"
)

// Point reduces one snapshot to state tallies — one sample of the
// adoption curve.
type Point struct {
	// Taken is the snapshot time.
	Taken time.Time
	// Gone/HTTPOnly/Broken/Valid partition the host population.
	Gone     int
	HTTPOnly int
	Broken   int
	Valid    int
}

// Total is the population size at the sample.
func (p Point) Total() int { return p.Gone + p.HTTPOnly + p.Broken + p.Valid }

// ValidShare is the valid-https fraction in [0,1].
func (p Point) ValidShare() float64 {
	if t := p.Total(); t > 0 {
		return float64(p.Valid) / float64(t)
	}
	return 0
}

// PointOf tallies one snapshot. Counting over the state map is
// order-independent, so the unordered walk cannot leak into output.
func PointOf(s Snapshot) Point {
	p := Point{Taken: s.Taken}
	for _, st := range s.States {
		p.add(st)
	}
	return p
}

// Tally is PointOf(Capture(taken, set)) without the per-host state map,
// for callers that only chart the curve. It counts rows, so it matches
// Capture whenever the set holds each hostname once, as every scan of a
// host list without repeats does.
func Tally(taken time.Time, set *resultset.Set) Point {
	p := Point{Taken: taken}
	for i := 0; i < set.Len(); i++ {
		p.add(stateOf(set.At(i)))
	}
	return p
}

// add counts one host in state st.
func (p *Point) add(st State) {
	switch st {
	case Gone:
		p.Gone++
	case HTTPOnly:
		p.HTTPOnly++
	case BrokenHTTPS:
		p.Broken++
	case ValidHTTPS:
		p.Valid++
	}
}

// Trajectory is the adoption curve a periodic snapshot stream traces —
// the longitudinal monitoring the paper names as future work, emitted
// over virtual months by the continuous observatory.
type Trajectory struct {
	Points []Point
}

// AdoptionDelta is the net change in valid-https hosts from the first
// sample to the last (zero for fewer than two samples).
func (t Trajectory) AdoptionDelta() int {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Points[len(t.Points)-1].Valid - t.Points[0].Valid
}

// Bytes serializes the trajectory canonically, one sample per line.
func (t Trajectory) Bytes() []byte {
	var b bytes.Buffer
	for i, p := range t.Points {
		fmt.Fprintf(&b, "sample=%03d t=%s gone=%d http-only=%d broken=%d valid=%d\n",
			i, p.Taken.UTC().Format(time.RFC3339), p.Gone, p.HTTPOnly, p.Broken, p.Valid)
	}
	return b.Bytes()
}
