package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Bytes renders a byte count with a binary-prefix unit.
func Bytes(n int64) string {
	if n == 0 {
		return ""
	}
	v := float64(n)
	for _, unit := range []string{"B", "KiB", "MiB", "GiB"} {
		if v < 1024 || unit == "GiB" {
			if unit == "B" {
				return fmt.Sprintf("%.0f %s", v, unit)
			}
			return fmt.Sprintf("%.1f %s", v, unit)
		}
		v /= 1024
	}
	return ""
}

// TimelineBar is one operation on a timeline track.
type TimelineBar struct {
	Track   string
	Label   string
	StartNs float64
	DurNs   float64
}

// Timeline renders operations against a shared virtual-time axis as an
// ASCII Gantt chart: one line per bar, positioned proportionally within
// the [start, end) window, grouped by track. It is the terminal companion
// to the Chrome-trace export.
type Timeline struct {
	Title   string
	StartNs float64
	EndNs   float64
	// Width is the number of columns for the bar area (default 60).
	Width int
	bars  []TimelineBar
}

// NewTimeline creates a timeline over the [startNs, endNs) window.
func NewTimeline(title string, startNs, endNs float64) *Timeline {
	return &Timeline{Title: title, StartNs: startNs, EndNs: endNs}
}

// Add appends one bar. Bars outside the window are clipped; fully-outside
// bars are dropped at render time.
func (tl *Timeline) Add(track, label string, startNs, durNs float64) {
	tl.bars = append(tl.bars, TimelineBar{Track: track, Label: label, StartNs: startNs, DurNs: durNs})
}

// WriteTo renders the chart.
func (tl *Timeline) WriteTo(w io.Writer) (int64, error) {
	width := tl.Width
	if width <= 0 {
		width = 60
	}
	span := tl.EndNs - tl.StartNs
	if span <= 0 {
		n, err := fmt.Fprintf(w, "%s (empty window)\n", tl.Title)
		return int64(n), err
	}

	// Group bars by track in first-seen order, keep start order inside.
	trackOrder := []string{}
	byTrack := map[string][]TimelineBar{}
	for _, b := range tl.bars {
		if b.StartNs >= tl.EndNs || b.StartNs+b.DurNs < tl.StartNs {
			continue
		}
		if _, ok := byTrack[b.Track]; !ok {
			trackOrder = append(trackOrder, b.Track)
		}
		byTrack[b.Track] = append(byTrack[b.Track], b)
	}

	labelW, trackW := 0, 0
	for _, b := range tl.bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
		if len(b.Track) > trackW {
			trackW = len(b.Track)
		}
	}
	if labelW > 34 {
		labelW = 34
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", tl.Title)
	fmt.Fprintf(&sb, "window %.3f–%.3f ms (%.3f ms, %d cols ⇒ %.4f ms/col)\n",
		tl.StartNs/1e6, tl.EndNs/1e6, span/1e6, width, span/1e6/float64(width))
	for _, track := range trackOrder {
		bars := byTrack[track]
		sort.SliceStable(bars, func(i, j int) bool { return bars[i].StartNs < bars[j].StartNs })
		for _, b := range bars {
			lo := int((b.StartNs - tl.StartNs) / span * float64(width))
			hi := int((b.StartNs + b.DurNs - tl.StartNs) / span * float64(width))
			if lo < 0 {
				lo = 0
			}
			if hi > width {
				hi = width
			}
			if hi <= lo {
				hi = lo + 1 // even instantaneous ops get one visible tick
			}
			if lo >= width {
				lo, hi = width-1, width
			}
			bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", width-hi)
			label := b.Label
			if len(label) > labelW {
				label = label[:labelW-1] + "…"
			}
			fmt.Fprintf(&sb, "%-*s  %-*s %9.4f ms |%s|\n", trackW, track, labelW, label, b.DurNs/1e6, bar)
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the timeline to a string.
func (tl *Timeline) String() string {
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}
