package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The octrace text format, one collective call per line:
//
//	trace   = header line*
//	header  = "octrace v1" NL
//	line    = blank | comment | record
//	comment = "#" any* NL
//	record  = op SP root SP lines SP delta SP compute NL
//	op      = "bcast" | "reduce" | "allreduce" | "scatter" | "gather" | "allgather"
//	root    = decimal integer       (0 for unrooted ops)
//	lines   = decimal integer       (payload in 32-byte cache lines, >= 1)
//	delta   = decimal float         (issue-time delta in µs, >= 0)
//	compute = decimal float         (overlappable compute gap in µs, >= 0)
//
// Fields are separated by any run of spaces or tabs. Floats round-trip
// exactly: Format emits the shortest representation that parses back to
// the identical float64. Parse is strict — unknown ops, missing or extra
// fields, out-of-range values and a missing header are all errors that
// name the offending line. A parsed trace is always a valid one.

// formatHeader is the required first non-blank, non-comment line.
const formatHeader = "octrace v1"

// Parse reads an octrace text stream. Errors carry the 1-based line
// number of the offending input line.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	t := &Trace{}
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != formatHeader {
				return nil, fmt.Errorf("workload: line %d: missing %q header (got %q)", lineNo, formatHeader, truncate(line))
			}
			sawHeader = true
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: line %d: %w", lineNo+1, err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("workload: empty input: missing %q header", formatHeader)
	}
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("workload: line %d: trace has no records", lineNo)
	}
	return t, nil
}

// ParseBytes parses an octrace document held in memory.
func ParseBytes(data []byte) (*Trace, error) {
	return Parse(bytes.NewReader(data))
}

// parseRecord parses one record line (already trimmed, non-empty).
func parseRecord(line string) (Record, error) {
	f := strings.Fields(line)
	if len(f) != 5 {
		return Record{}, fmt.Errorf("want 5 fields (op root lines delta compute), got %d", len(f))
	}
	rec := Record{Op: f[0]}
	if OpOf(rec.Op) == nil {
		return Record{}, fmt.Errorf("unknown op %q", truncate(rec.Op))
	}
	var err error
	if rec.Root, err = parseInt("root", f[1], 0, MaxRoot); err != nil {
		return Record{}, err
	}
	if rec.Lines, err = parseInt("lines", f[2], 1, MaxLines); err != nil {
		return Record{}, err
	}
	if rec.DeltaUs, err = parseGap("delta", f[3]); err != nil {
		return Record{}, err
	}
	if rec.ComputeUs, err = parseGap("compute", f[4]); err != nil {
		return Record{}, err
	}
	// parse bounds mirror Validate exactly, so the invariant holds by
	// construction; keep the belt-and-braces check cheap and explicit.
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// parseInt parses a bounded decimal integer field.
func parseInt(name, s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a decimal integer", name, truncate(s))
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return v, nil
}

// parseGap parses a bounded non-negative float field.
func parseGap(name, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a number", name, truncate(s))
	}
	if err := validGap(name, v); err != nil {
		return 0, err
	}
	return v, nil
}

// truncate bounds untrusted input echoed into error messages.
func truncate(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}

// Format serializes the trace in canonical octrace text: header, one
// record per line, floats in shortest-exact form. Parse(Format(t)) yields
// a trace with identical records, and Format is a fixed point — canonical
// text re-serializes byte-identically.
func (t *Trace) Format() []byte {
	var b bytes.Buffer
	b.Grow(len(formatHeader) + 1 + 32*len(t.Records))
	b.WriteString(formatHeader)
	b.WriteByte('\n')
	for _, r := range t.Records {
		b.WriteString(r.Op)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(r.Root))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(r.Lines))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(r.DeltaUs, 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(r.ComputeUs, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// WriteTo serializes the trace to w in canonical octrace text.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.Format())
	return int64(n), err
}

// String renders the canonical octrace text (fmt.Stringer).
func (t *Trace) String() string { return string(t.Format()) }
