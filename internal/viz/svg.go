package viz

import (
	"fmt"

	"sops/internal/config"
	"sops/internal/lattice"
)

// SVG renders the configuration as a standalone SVG document in the style
// of the paper's figures: filled circles on the triangular lattice with the
// induced edges drawn between adjacent particles (cf. Figs 2 and 10, which
// show "particles in a line with edges drawn"). Marked points (e.g. crashed
// particles) are drawn hollow.
func SVG(c *config.Config, marked map[lattice.Point]bool) string {
	return string(AppendSVG(nil, c, marked))
}

// AppendSVG appends the SVG document to buf and returns the extended slice.
// It is the allocation-frugal path behind SVG: a caller rendering one frame
// per snapshot (sops serve streaming) passes buf[:0] of a reused slice so
// the per-frame cost is the formatting alone, not a rebuilt builder.
func AppendSVG(buf []byte, c *config.Config, marked map[lattice.Point]bool) []byte {
	const scale = 20.0
	const margin = 30.0
	if c.N() == 0 {
		return append(buf, `<svg xmlns="http://www.w3.org/2000/svg" width="40" height="40"></svg>`...)
	}
	pts := c.Points()
	minX, minY := 1e18, 1e18
	maxX, maxY := -1e18, -1e18
	for _, p := range pts {
		x, y := p.Euclidean()
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	width := (maxX-minX)*scale + 2*margin
	height := (maxY-minY)*scale + 2*margin
	// SVG's y axis grows downward; flip so the rendering matches the
	// mathematical orientation.
	tx := func(p lattice.Point) (float64, float64) {
		x, y := p.Euclidean()
		return (x-minX)*scale + margin, height - ((y-minY)*scale + margin)
	}

	buf = fmt.Appendf(buf, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	buf = append(buf, `<rect width="100%" height="100%" fill="white"/>`+"\n"...)
	// Edges first so circles draw over them; directions 0..2 cover each
	// undirected edge once.
	for _, p := range pts {
		for d := lattice.Dir(0); d < 3; d++ {
			q := p.Neighbor(d)
			if !c.Has(q) {
				continue
			}
			x1, y1 := tx(p)
			x2, y2 := tx(q)
			buf = fmt.Appendf(buf, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
				x1, y1, x2, y2)
		}
	}
	for _, p := range pts {
		x, y := tx(p)
		if marked[p] {
			buf = fmt.Appendf(buf, `<circle cx="%.1f" cy="%.1f" r="6" fill="white" stroke="black" stroke-width="2"/>`+"\n", x, y)
		} else {
			buf = fmt.Appendf(buf, `<circle cx="%.1f" cy="%.1f" r="6" fill="black"/>`+"\n", x, y)
		}
	}
	return append(buf, "</svg>\n"...)
}
