package viz

import (
	"fmt"
)

// Timeline rendering: metric-vs-time line charts as standalone SVG, in the
// same deterministic fmt.Appendf style as the configuration renderer. The
// serve layer uses it for the per-job timeline artifacts; every byte is a
// pure function of the input, so timeline.svg files are stable cache
// content (and goldenable).

// TimelineSeries is one named curve: Y sampled at X (typically chain
// iterations). X and Y must have equal length.
type TimelineSeries struct {
	Label string
	X, Y  []float64
}

// TimelinePanel is one chart: a title and any number of series sharing its
// axes.
type TimelinePanel struct {
	Title  string
	Series []TimelineSeries
}

// seriesPalette colors curves by index (cycling). Index 0 is black to match
// the paper-style configuration renders.
var seriesPalette = []string{
	"#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
}

// Panel geometry (pixels).
const (
	tlWidth       = 720.0
	tlPanelHeight = 170.0
	tlMarginLeft  = 64.0
	tlMarginRight = 16.0
	tlMarginTop   = 28.0
	tlMarginBot   = 26.0
)

// AppendTimelineSVG appends the panels, stacked vertically as one SVG
// document, to buf and returns the extended slice.
func AppendTimelineSVG(buf []byte, title string, panels []TimelinePanel) []byte {
	height := 24.0 + tlPanelHeight*float64(len(panels))
	buf = fmt.Appendf(buf, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" font-family="monospace" font-size="11">`+"\n",
		tlWidth, height, tlWidth, height)
	buf = append(buf, `<rect width="100%" height="100%" fill="white"/>`+"\n"...)
	buf = fmt.Appendf(buf, `<text x="%.1f" y="16" font-size="13">%s</text>`+"\n", tlMarginLeft, xmlEscape(title))
	for i, p := range panels {
		buf = appendPanel(buf, p, 24.0+tlPanelHeight*float64(i))
	}
	return append(buf, "</svg>\n"...)
}

// appendPanel draws one panel with its top edge at yOff.
func appendPanel(buf []byte, p TimelinePanel, yOff float64) []byte {
	x0 := tlMarginLeft
	x1 := tlWidth - tlMarginRight
	y0 := yOff + tlMarginTop
	y1 := yOff + tlPanelHeight - tlMarginBot

	minX, maxX, minY, maxY, points := bounds(p.Series)
	buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f">%s</text>`+"\n", x0, y0-8, xmlEscape(p.Title))
	// Frame.
	buf = fmt.Appendf(buf, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#999" stroke-width="1"/>`+"\n",
		x0, y0, x1-x0, y1-y0)
	if points == 0 {
		return fmt.Appendf(buf, `<text x="%.1f" y="%.1f" fill="#999">(no data)</text>`+"\n", (x0+x1)/2-24, (y0+y1)/2)
	}
	// Axis extent labels: min/max on both axes beat unreadable tick soup at
	// this size, and they are trivially deterministic.
	buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f" text-anchor="end">%.6g</text>`+"\n", x0-4, y1, minY)
	buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f" text-anchor="end">%.6g</text>`+"\n", x0-4, y0+10, maxY)
	buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f">%.6g</text>`+"\n", x0, y1+14, minX)
	buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f" text-anchor="end">%.6g</text>`+"\n", x1, y1+14, maxX)

	sx := func(v float64) float64 {
		if maxX == minX {
			return (x0 + x1) / 2
		}
		return x0 + (v-minX)/(maxX-minX)*(x1-x0)
	}
	sy := func(v float64) float64 {
		if maxY == minY {
			return (y0 + y1) / 2
		}
		return y1 - (v-minY)/(maxY-minY)*(y1-y0)
	}
	for si, s := range p.Series {
		color := seriesPalette[si%len(seriesPalette)]
		if len(s.X) == 1 {
			buf = fmt.Appendf(buf, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n", sx(s.X[0]), sy(s.Y[0]), color)
		} else if len(s.X) > 1 {
			buf = fmt.Appendf(buf, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="`, color)
			for i := range s.X {
				if i > 0 {
					buf = append(buf, ' ')
				}
				buf = fmt.Appendf(buf, "%.1f,%.1f", sx(s.X[i]), sy(s.Y[i]))
			}
			buf = append(buf, `"/>`+"\n"...)
		}
		// Legend entry, right-aligned in the panel header.
		lx := x1 - 150.0*float64(len(p.Series)-si)
		buf = fmt.Appendf(buf, `<rect x="%.1f" y="%.1f" width="10" height="3" fill="%s"/>`+"\n", lx, y0-14, color)
		buf = fmt.Appendf(buf, `<text x="%.1f" y="%.1f">%s</text>`+"\n", lx+14, y0-10, xmlEscape(clip(s.Label, 18)))
	}
	return buf
}

// bounds computes the shared axis extents of a panel's series.
func bounds(series []TimelineSeries) (minX, maxX, minY, maxY float64, points int) {
	minX, minY = 1e308, 1e308
	maxX, maxY = -1e308, -1e308
	for _, s := range series {
		n := len(s.X)
		if len(s.Y) < n {
			n = len(s.Y)
		}
		for i := 0; i < n; i++ {
			minX, maxX = min(minX, s.X[i]), max(maxX, s.X[i])
			minY, maxY = min(minY, s.Y[i]), max(maxY, s.Y[i])
			points++
		}
	}
	return minX, maxX, minY, maxY, points
}

// clip shortens a label to at most n runes, marking the cut with an
// ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

// xmlEscape escapes the five XML special characters in text content.
func xmlEscape(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		case '\'':
			out = append(out, "&#39;"...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
