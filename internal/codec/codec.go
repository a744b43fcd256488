// Package codec reads and writes datasets. Two formats:
//
//   - CSV: one point per line, comma-separated coordinates; blank
//     lines and '#' comments ignored. The interchange format of the
//     skygen/skyline CLIs.
//   - ZSKY binary: a compact self-describing format (magic, version,
//     dims, count, little-endian float64 payload, CRC-32 of the
//     payload) for large benchmark datasets where CSV parsing would
//     dominate load time. Truncation and corruption are detected.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"

	"zskyline/internal/point"
)

// Magic identifies the binary format.
const Magic = "ZSKY"

// Version is the current binary format version.
const Version uint16 = 1

// WriteBinary serializes ds in ZSKY format.
func WriteBinary(w io.Writer, ds *point.Dataset) error {
	if ds == nil || ds.Dims <= 0 {
		return fmt.Errorf("codec: nil or dimensionless dataset")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	hdr := make([]byte, 14)
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(ds.Dims))
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(ds.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 8)
	for _, p := range ds.Points {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			crc.Write(buf)
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a ZSKY stream, validating magic, version, payload
// length and checksum.
func ReadBinary(r io.Reader) (*point.Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("codec: bad magic %q", magic)
	}
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("codec: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != Version {
		return nil, fmt.Errorf("codec: unsupported version %d", v)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[2:6]))
	count := binary.LittleEndian.Uint64(hdr[6:14])
	if dims <= 0 || dims > 1<<20 {
		return nil, fmt.Errorf("codec: implausible dims %d", dims)
	}
	if count > 1<<40 {
		return nil, fmt.Errorf("codec: implausible count %d", count)
	}
	crc := crc32.NewIEEE()
	pts := make([]point.Point, count)
	buf := make([]byte, 8)
	for i := range pts {
		p := make(point.Point, dims)
		for k := 0; k < dims; k++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("codec: truncated payload at point %d: %w", i, err)
			}
			crc.Write(buf)
			p[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		pts[i] = p
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("codec: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:4]); got != crc.Sum32() {
		return nil, fmt.Errorf("codec: checksum mismatch: stored %08x, computed %08x", got, crc.Sum32())
	}
	return point.NewDataset(dims, pts)
}

// WriteCSV serializes ds as CSV with full float64 round-trip precision.
func WriteCSV(w io.Writer, ds *point.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, p := range ds.Points {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses CSV points; every line must have the same number of
// fields. Blank lines and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) (*point.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pts []point.Point
	dims := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if dims == -1 {
			dims = len(fields)
		}
		if len(fields) != dims {
			return nil, fmt.Errorf("codec: line %d has %d fields, want %d", lineNo, len(fields), dims)
		}
		p := make(point.Point, dims)
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("codec: line %d field %d: %w", lineNo, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dims == -1 {
		return nil, fmt.Errorf("codec: no data rows")
	}
	return point.NewDataset(dims, pts)
}

// ReadNamedCSV parses a CSV whose first data line may be a header of
// attribute names (detected by any non-numeric field). When no header
// is present, attributes are named c0, c1, ... in column order.
func ReadNamedCSV(r io.Reader) (attrs []string, rows [][]float64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if attrs == nil && rows == nil {
			// First data line: header if any field fails to parse.
			numeric := true
			for _, f := range fields {
				if _, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
					numeric = false
					break
				}
			}
			if !numeric {
				attrs = make([]string, len(fields))
				for i, f := range fields {
					attrs[i] = strings.TrimSpace(f)
				}
				continue
			}
			attrs = make([]string, len(fields))
			for i := range attrs {
				attrs[i] = fmt.Sprintf("c%d", i)
			}
		}
		if len(fields) != len(attrs) {
			return nil, nil, fmt.Errorf("codec: line %d has %d fields, want %d", lineNo, len(fields), len(attrs))
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("codec: line %d field %d: %w", lineNo, i+1, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if attrs == nil {
		return nil, nil, fmt.Errorf("codec: no data rows")
	}
	return attrs, rows, nil
}

// BinaryReader streams a ZSKY file incrementally, for datasets too
// large to hold in memory. The CRC is verified when the stream is
// fully consumed.
type BinaryReader struct {
	br        *bufio.Reader
	dims      int
	remaining uint64
	crc       hash.Hash32
	buf       []byte
}

// NewBinaryReader validates the header and prepares to stream points.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("codec: bad magic %q", magic)
	}
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("codec: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != Version {
		return nil, fmt.Errorf("codec: unsupported version %d", v)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[2:6]))
	count := binary.LittleEndian.Uint64(hdr[6:14])
	if dims <= 0 || dims > 1<<20 {
		return nil, fmt.Errorf("codec: implausible dims %d", dims)
	}
	return &BinaryReader{br: br, dims: dims, remaining: count,
		crc: crc32.NewIEEE(), buf: make([]byte, 8)}, nil
}

// Dims returns the stream's dimensionality.
func (b *BinaryReader) Dims() int { return b.dims }

// Remaining returns how many points are left to read.
func (b *BinaryReader) Remaining() uint64 { return b.remaining }

// Next reads up to max points; it returns io.EOF (with zero points)
// once the stream is exhausted and the checksum verified.
func (b *BinaryReader) Next(max int) ([]point.Point, error) {
	if max < 1 {
		return nil, fmt.Errorf("codec: batch size must be positive")
	}
	if b.remaining == 0 {
		if b.crc != nil {
			if _, err := io.ReadFull(b.br, b.buf[:4]); err != nil {
				return nil, fmt.Errorf("codec: missing checksum: %w", err)
			}
			if got := binary.LittleEndian.Uint32(b.buf[:4]); got != b.crc.Sum32() {
				return nil, fmt.Errorf("codec: checksum mismatch")
			}
			b.crc = nil
		}
		return nil, io.EOF
	}
	n := uint64(max)
	if n > b.remaining {
		n = b.remaining
	}
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, b.dims)
		for k := 0; k < b.dims; k++ {
			if _, err := io.ReadFull(b.br, b.buf); err != nil {
				return nil, fmt.Errorf("codec: truncated payload: %w", err)
			}
			b.crc.Write(b.buf)
			p[k] = math.Float64frombits(binary.LittleEndian.Uint64(b.buf))
		}
		pts[i] = p
	}
	b.remaining -= n
	return pts, nil
}

// NextBlock reads up to max points into one contiguous block. It is
// Next on the block data plane: the batch payload is read and
// checksummed in a single bulk transfer, and the batch costs two
// allocations regardless of row count. io.EOF (with an empty block)
// signals exhaustion after checksum verification.
func (b *BinaryReader) NextBlock(max int) (point.Block, error) {
	if max < 1 {
		return point.Block{}, fmt.Errorf("codec: batch size must be positive")
	}
	if b.remaining == 0 {
		if b.crc != nil {
			if _, err := io.ReadFull(b.br, b.buf[:4]); err != nil {
				return point.Block{}, fmt.Errorf("codec: missing checksum: %w", err)
			}
			if got := binary.LittleEndian.Uint32(b.buf[:4]); got != b.crc.Sum32() {
				return point.Block{}, fmt.Errorf("codec: checksum mismatch")
			}
			b.crc = nil
		}
		return point.Block{}, io.EOF
	}
	n := uint64(max)
	if n > b.remaining {
		n = b.remaining
	}
	payload := make([]byte, int(n)*b.dims*8)
	if _, err := io.ReadFull(b.br, payload); err != nil {
		return point.Block{}, fmt.Errorf("codec: truncated payload: %w", err)
	}
	b.crc.Write(payload)
	data := make([]float64, int(n)*b.dims)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	b.remaining -= n
	return point.Block{Dims: b.dims, Data: data}, nil
}

// WriteBlock writes one length-prefixed block frame — b's flat
// [dims][rows][payload] encoding preceded by its uint32 byte length —
// so a stream can carry consecutive blocks of varying sizes.
func WriteBlock(w io.Writer, b point.Block) error {
	frame, err := b.MarshalBinary()
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadBlock reads one length-prefixed block frame written by
// WriteBlock. io.EOF is returned unwrapped at a clean stream end.
func ReadBlock(r io.Reader) (point.Block, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return point.Block{}, io.EOF
		}
		return point.Block{}, fmt.Errorf("codec: reading block length: %w", err)
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size > 1<<30 {
		return point.Block{}, fmt.Errorf("codec: implausible block frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return point.Block{}, fmt.Errorf("codec: truncated block frame: %w", err)
	}
	var b point.Block
	if err := b.UnmarshalBinary(frame); err != nil {
		return point.Block{}, err
	}
	return b, nil
}
