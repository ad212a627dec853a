// Package frame implements the sops binary frame protocol: the versioned,
// delta-encoded wire and log format behind `sops serve` streams, the
// frames.bin workspace logs, and the cluster frame mirrors.
//
// A frame log is a self-describing header followed by length-prefixed
// records:
//
//	log    := header record*
//	header := "SOPF" version reserved[3]        (8 bytes, version = 0x01)
//	record := uvarint(len(body)) body
//	body   := kind rest
//
// Three record kinds exist. Raw records carry one NDJSON frame line
// verbatim — task frames, sweep snapshot frames, and done frames, whose
// JSON is the contract and whose volume is low. Keyframe and delta records
// carry run-job snapshots in binary: a keyframe packs the full
// configuration as a varint delta-coded point list (plus per-particle
// payload bytes under payload rules), a delta packs only the net
// configuration change since the previous snapshot record — the removed,
// added, and payload-rotated sites, coalesced from the engine's accepted
// moves. The chain M moves exactly one particle per accepted step
// (Cannon–Daymude–Randall–Richa 2016), so deltas are tiny; periodic
// keyframes (and a keyframe whenever a delta would not be smaller) bound
// resync cost for readers joining mid-log.
//
// Both snapshot kinds share a prelude of the frame's scalar metrics:
//
//	prelude  := flags seq iteration perimeter edges energy alpha beta bias?
//	flags    := 1 byte: bit0 hole_free, bit1 svg, bit2 payloads, bit3 bias
//	seq, iteration, perimeter, edges := uvarint
//	energy   := varint (zigzag)
//	alpha, beta := float64 bits, little endian (exact round trip)
//	bias     := float64 bits, present only when bit3 is set — the bias
//	            schedule's λ at the snapshot instant for biased rules
//
//	keyframe rest := uvarint(n) points[n] payload[n]?
//	delta rest    := uvarint(r) points[r]             removed sites
//	                 uvarint(a) points[a] payload[a]? added sites
//	                 (uvarint(t) points[t] payload[t])? rotated sites
//
// Point lists are sorted in canonical (Y, X) order and delta-coded: each
// point is zigzag-varint (dx, dy) against its predecessor (the first
// against the origin). The payload arrays and the rotated section are
// present only when the payloads flag is set.
//
// Decoding a snapshot record is exact: every JSON field of the equivalent
// NDJSON frame (including float formatting — the bits round-trip) is
// recoverable, so a JSON transcode of a binary log is byte-identical to
// the NDJSON stream the server would have produced directly.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version this package reads and writes.
const Version = 1

// HeaderSize is the length of the log header in bytes.
const HeaderSize = 8

// magic identifies a sops frame log.
var magic = [4]byte{'S', 'O', 'P', 'F'}

// Record kinds — the first body byte of every record.
const (
	// KindRaw carries one NDJSON frame line verbatim.
	KindRaw byte = 0x01
	// KindKeyframe carries a snapshot with the full configuration.
	KindKeyframe byte = 0x02
	// KindDelta carries a snapshot with only the configuration change
	// since the previous snapshot record.
	KindDelta byte = 0x03
)

// Snapshot prelude flag bits.
const (
	flagHoleFree byte = 1 << 0
	flagSVG      byte = 1 << 1
	flagPayloads byte = 1 << 2
	flagBias     byte = 1 << 3
)

// maxRecordLen bounds a single record: parsing rejects anything larger, so
// a corrupt length prefix cannot drive an allocation of arbitrary size.
const maxRecordLen = 1 << 26

// Protocol errors.
var (
	// ErrTruncated reports an input that ends mid-header or mid-record.
	ErrTruncated = errors.New("frame: truncated input")
	// ErrCorrupt reports structurally invalid bytes (bad varint, length
	// overflow, unknown kind, counts exceeding the record).
	ErrCorrupt = errors.New("frame: corrupt record")
	// ErrVersion reports a log header with an unsupported version byte.
	ErrVersion = errors.New("frame: unsupported protocol version")
)

// AppendHeader appends the 8-byte log header to dst.
func AppendHeader(dst []byte) []byte {
	dst = append(dst, magic[:]...)
	return append(dst, Version, 0, 0, 0)
}

// Header returns a fresh copy of the log header.
func Header() []byte { return AppendHeader(make([]byte, 0, HeaderSize)) }

// HasHeader reports whether raw starts with the log magic.
func HasHeader(raw []byte) bool {
	return len(raw) >= 4 && raw[0] == magic[0] && raw[1] == magic[1] &&
		raw[2] == magic[2] && raw[3] == magic[3]
}

// AppendRaw appends one framed raw record carrying line (an NDJSON frame
// without its trailing newline) to dst.
func AppendRaw(dst []byte, line []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(line)+1))
	dst = append(dst, KindRaw)
	return append(dst, line...)
}

// Raw builds a standalone framed raw record for line, sized exactly.
func Raw(line []byte) []byte {
	rec := make([]byte, 0, binary.MaxVarintLen32+1+len(line))
	return AppendRaw(rec, line)
}

// Kind returns the record kind of one framed record.
func Kind(rec []byte) (byte, error) {
	body, err := recordBody(rec)
	if err != nil {
		return 0, err
	}
	return body[0], nil
}

// RawBody returns the NDJSON line of a framed raw record; ok is false for
// snapshot records or malformed input.
func RawBody(rec []byte) (line []byte, ok bool) {
	body, err := recordBody(rec)
	if err != nil || body[0] != KindRaw {
		return nil, false
	}
	return body[1:], true
}

// recordBody validates one framed record (length prefix covering the rest
// exactly) and returns its body.
func recordBody(rec []byte) ([]byte, error) {
	n, w := binary.Uvarint(rec)
	if w <= 0 {
		return nil, ErrCorrupt
	}
	if n == 0 || n > maxRecordLen {
		return nil, ErrCorrupt
	}
	if uint64(len(rec)-w) != n {
		return nil, ErrCorrupt
	}
	return rec[w:], nil
}

// A Scanner incrementally splits a byte stream — arriving in arbitrary
// chunks — into framed records. It tolerates a missing header (mirror
// tails that attach mid-log never see one) but validates the version when
// the stream does start with the magic.
type Scanner struct {
	buf       []byte
	sawHeader bool
	err       error
}

// Write appends the next chunk of the stream.
func (s *Scanner) Write(p []byte) {
	if s.err == nil {
		s.buf = append(s.buf, p...)
	}
}

// Next returns the next complete framed record (a copy, safe to retain),
// or ok == false when the buffered bytes hold none (or the scanner is in
// error — check Err).
func (s *Scanner) Next() (rec []byte, ok bool) {
	if s.err != nil {
		return nil, false
	}
	if !s.sawHeader {
		if HasHeader(s.buf) {
			if len(s.buf) < HeaderSize {
				return nil, false
			}
			if s.buf[4] != Version {
				s.err = fmt.Errorf("%w: %d", ErrVersion, s.buf[4])
				return nil, false
			}
			s.buf = s.buf[HeaderSize:]
		} else if len(s.buf) >= 4 {
			// No magic in sight: a headerless record stream.
		} else if len(s.buf) > 0 && magicPrefix(s.buf) {
			return nil, false // could still become a header
		}
		if len(s.buf) >= 4 || (len(s.buf) > 0 && !magicPrefix(s.buf)) {
			s.sawHeader = true
		}
	}
	if len(s.buf) == 0 {
		return nil, false
	}
	n, w := binary.Uvarint(s.buf)
	if w <= 0 {
		if len(s.buf) >= binary.MaxVarintLen64 {
			s.err = ErrCorrupt
		}
		return nil, false
	}
	if n == 0 || n > maxRecordLen {
		s.err = ErrCorrupt
		return nil, false
	}
	total := w + int(n)
	if len(s.buf) < total {
		return nil, false
	}
	rec = append([]byte(nil), s.buf[:total]...)
	s.buf = s.buf[total:]
	return rec, true
}

// Buffered returns how many unconsumed bytes the scanner holds — non-zero
// after a drained stream means a trailing partial record.
func (s *Scanner) Buffered() int { return len(s.buf) }

// Err returns the first structural error the scanner hit, if any.
func (s *Scanner) Err() error { return s.err }

func magicPrefix(b []byte) bool {
	for i := 0; i < len(b) && i < 4; i++ {
		if b[i] != magic[i] {
			return false
		}
	}
	return true
}

// Split parses a complete frame log (with or without its header) into
// framed records. A trailing partial record is an ErrTruncated error.
func Split(raw []byte) ([][]byte, error) {
	var sc Scanner
	sc.Write(raw)
	var recs [][]byte
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, err
	}
	if sc.Buffered() > 0 {
		return recs, ErrTruncated
	}
	return recs, nil
}

// Count returns how many complete records raw holds and the length of the
// prefix that holds them, header included, ignoring any trailing partial
// record: the record count a resuming mirror writer continues from, and the
// length it cuts a torn tail back to.
func Count(raw []byte) (recs, size int) {
	var sc Scanner
	sc.Write(raw)
	for {
		if _, ok := sc.Next(); !ok {
			return recs, len(raw) - sc.Buffered()
		}
		recs++
	}
}

// A Reader pulls framed records off an io.Reader (an HTTP binary stream).
type Reader struct {
	r     io.Reader
	sc    Scanner
	chunk []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, chunk: make([]byte, 64<<10)}
}

// Next returns the next framed record, io.EOF at a clean end of stream, or
// io.ErrUnexpectedEOF when the stream ends mid-record.
func (r *Reader) Next() ([]byte, error) {
	for {
		if rec, ok := r.sc.Next(); ok {
			return rec, nil
		}
		if err := r.sc.Err(); err != nil {
			return nil, err
		}
		n, err := r.r.Read(r.chunk)
		if n > 0 {
			r.sc.Write(r.chunk[:n])
			continue
		}
		if err == nil {
			continue
		}
		if err == io.EOF {
			if r.sc.Buffered() > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, io.EOF
		}
		return nil, err
	}
}
