// Package stream records, replays and live-decodes syndrome streams.
//
// Real devices do not hand the decoder a simulator callback: they emit a
// continuous stream of detection events (Kelly et al. calibrate from
// exactly such a stream, and ReloQate detects drift on it online). This
// package closes that gap for CaliQEC with three layers:
//
//   - A versioned, self-describing binary trace format (this file): a
//     CRC-checked header carrying the circuit fingerprint, detector and
//     observable counts and seed metadata, followed by length-prefixed,
//     CRC-checked frames of bit-packed detection events plus the sampled
//     observable mask. Writer and Reader recover gracefully from
//     truncation: a partial trailing frame is reported as ErrTruncated
//     with every complete frame before it already delivered.
//   - A record tap (record.go) that persists the exact shot stream
//     mc.Evaluate would sample, making a trace a correctness oracle: a
//     replay must reproduce the in-process evaluation's logical failure
//     count bit-identically.
//   - One decode executor (pool.go) behind Replay (replay.go) and the TCP
//     ingestion server (server.go): a shared worker pool with bounded
//     per-stream queues, Block or Shed backpressure and DRR scheduling
//     across tenants, feeding any io.Reader — file, pipe, network — through
//     the mc engine's cached decoding graph and pooled decoders.
//
// Wire format (all integers little-endian):
//
//	header:  magic "CQSTRM01" (8) | version u16 | flags u16 |
//	         numDetectors u32 | numObs u32 | tenant u32 |
//	         fingerprint [16] | seed u64 | shots u64 |
//	         [v2+] rounds u32 | detPerRound u32 |
//	         crc32(header) u32
//	frame:   payloadLen u32 | obsMask u64 | packed detectors
//	         ceil(numDetectors/8) bytes | crc32(payload) u32
//
// Version 2 appends the shot's round structure to the header: rounds is the
// QEC rounds per shot (0 = unknown/roundless) and detPerRound the uniform
// detectors-per-round count (0 = non-uniform or unknown; memory circuits
// have thinner first and last detector rounds, so they record 0 and the
// decoder derives the per-round split from its own round map). The reader
// parses the version first and accepts v1 traces unchanged — their round
// fields read as zero.
//
// The tenant field occupies what both versions reserved as a zero u32:
// writers before the fleet subsystem always wrote 0 there, so tenant 0 (the
// default tenant) is byte-identical to every previously recorded trace and
// old readers ignore a nonzero tenant without a version bump. A multi-tenant
// server keys admission control and fair scheduling on it.
//
// Bit d of the packed detector bytes (byte d/8, bit d%8) is set when
// detector d fired. payloadLen is constant for a stream (8 + frame bytes);
// any other value marks the stream corrupt, which keeps a flipped length
// byte from desynchronizing the framing.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// Version is the trace format version this package writes. Readers accept
// versions 1 and 2.
const Version = 2

const (
	magic        = "CQSTRM01"
	headerPre    = len(magic) + 2 + 2             // magic | version | flags
	headerBodyV1 = 2 + 2 + 4 + 4 + 4 + 16 + 8 + 8 // after magic, before CRC
	headerBodyV2 = headerBodyV1 + 4 + 4           // + rounds | detPerRound
	headerLen    = len(magic) + headerBodyV2 + 4  // current-version size
)

// headerBodyFor returns the post-magic, pre-CRC body size of a version, or
// 0 for unsupported versions.
func headerBodyFor(version uint16) int {
	switch version {
	case 1:
		return headerBodyV1
	case 2:
		return headerBodyV2
	}
	return 0
}

// Sentinel errors. Reader methods wrap these with positional detail; test
// with errors.Is.
var (
	// ErrTruncated marks a stream that ended mid-frame, or (when the header
	// promised a shot count) at a frame boundary before delivering it.
	// Every frame returned before the error is complete and CRC-valid, so
	// callers may treat a truncated trace as a shorter one.
	ErrTruncated = errors.New("stream: trace truncated")
	// ErrCorrupt marks a frame whose length prefix or CRC is wrong. Framing
	// cannot be trusted past this point; readers stop.
	ErrCorrupt = errors.New("stream: trace corrupt")
	// ErrFormat marks a header that is not a CaliQEC trace (bad magic,
	// unsupported version, inconsistent dimensions, bad header CRC).
	ErrFormat = errors.New("stream: not a valid trace header")
	// ErrOverload marks a stream the server shed under admission control or
	// queue backpressure: the connection was healthy and the frames intact,
	// but the server declined (some of) the work. Distinct from ErrTruncated —
	// a client seeing ErrOverload should back off and retry, not suspect
	// corruption.
	ErrOverload = errors.New("stream: server overloaded, stream shed")
)

// Header is the self-describing trace preamble.
type Header struct {
	// Fingerprint is mc.Fingerprint of the sampled circuit; replay matches
	// it against the decoder's circuit before decoding a single frame.
	Fingerprint [16]byte
	// NumDetectors and NumObs fix the frame geometry.
	NumDetectors int
	NumObs       int
	// Seed is the metadata seed the stream was recorded with (0 when
	// unknown, e.g. hardware streams).
	Seed uint64
	// Shots is the intended stream length; 0 means open-ended (a live
	// stream), in which case clean EOF at a frame boundary is a complete
	// trace.
	Shots uint64
	// Rounds is the QEC rounds per shot; 0 means unknown (v1 traces, or
	// roundless circuits). Windowed replay checks it against the decoder's
	// round count before decoding.
	Rounds int
	// DetPerRound is the uniform detectors-per-round count, or 0 when the
	// per-round detector count varies (memory circuits: the first and last
	// detector rounds are thinner) or is unknown.
	DetPerRound int
	// Tenant identifies the stream's tenant for multi-tenant admission
	// control and fair scheduling. 0 is the default tenant and encodes
	// byte-identically to pre-fleet traces (the field was a zero reserved
	// word).
	Tenant uint32
}

// FrameBytes returns the packed detector payload size for numDetectors.
func FrameBytes(numDetectors int) int { return (numDetectors + 7) / 8 }

// frameBytes is the per-frame detector payload for this header.
func (h Header) frameBytes() int { return FrameBytes(h.NumDetectors) }

func (h Header) validate() error {
	if h.NumDetectors < 0 {
		return fmt.Errorf("%w: negative detector count %d", ErrFormat, h.NumDetectors)
	}
	if h.NumObs < 0 || h.NumObs > 64 {
		return fmt.Errorf("%w: observable count %d outside [0, 64]", ErrFormat, h.NumObs)
	}
	if h.Rounds < 0 || h.DetPerRound < 0 {
		return fmt.Errorf("%w: negative round geometry (rounds=%d, detPerRound=%d)", ErrFormat, h.Rounds, h.DetPerRound)
	}
	if h.Rounds > 0 && h.DetPerRound > 0 && h.Rounds*h.DetPerRound != h.NumDetectors {
		return fmt.Errorf("%w: %d rounds x %d detectors/round != %d detectors", ErrFormat, h.Rounds, h.DetPerRound, h.NumDetectors)
	}
	return nil
}

var crcTable = crc32.IEEETable

// appendHeader encodes h.
func appendHeader(buf []byte, h Header) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.NumDetectors))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.NumObs))
	buf = binary.LittleEndian.AppendUint32(buf, h.Tenant)
	buf = append(buf, h.Fingerprint[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, h.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, h.Shots)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Rounds))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.DetPerRound))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// Writer serializes a trace: the header at construction, then one frame per
// WriteFrame/WriteSyndrome call. It performs no internal buffering beyond
// the frame being encoded — wrap w in a bufio.Writer for small frames. Not
// safe for concurrent use. Errors are sticky: after a write error every
// subsequent call returns it.
type Writer struct {
	w      io.Writer
	h      Header
	fbytes int
	buf    []byte // scratch: one encoded frame
	packed []byte // scratch for WriteSyndrome
	frames uint64
	err    error
}

// NewWriter validates h and writes the trace header to w.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	tw := &Writer{
		w:      w,
		h:      h,
		fbytes: h.frameBytes(),
	}
	tw.buf = make([]byte, 0, 4+8+tw.fbytes+4)
	tw.packed = make([]byte, tw.fbytes)
	hdr := appendHeader(make([]byte, 0, headerLen), h)
	if _, err := w.Write(hdr); err != nil {
		tw.err = err
		return nil, err
	}
	return tw, nil
}

// Header returns the header the writer was constructed with.
func (w *Writer) Header() Header { return w.h }

// Frames returns how many frames have been written.
func (w *Writer) Frames() uint64 { return w.frames }

// WriteFrame appends one frame: packed is the bit-packed detector payload
// (length must be exactly FrameBytes(h.NumDetectors)) and obs the sampled
// observable flip mask.
func (w *Writer) WriteFrame(packed []byte, obs uint64) error {
	if w.err != nil {
		return w.err
	}
	if len(packed) != w.fbytes {
		w.err = fmt.Errorf("stream: frame payload %d bytes, want %d", len(packed), w.fbytes)
		return w.err
	}
	buf := binary.LittleEndian.AppendUint32(w.buf[:0], uint32(8+w.fbytes))
	buf = binary.LittleEndian.AppendUint64(buf, obs)
	buf = append(buf, packed...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[4:], crcTable))
	w.buf = buf[:0]
	if _, err := w.w.Write(buf); err != nil {
		w.err = err
		return err
	}
	w.frames++
	return nil
}

// WriteSyndrome appends one frame given the sorted fired-detector list
// instead of packed bytes.
func (w *Writer) WriteSyndrome(syndrome []int, obs uint64) error {
	if w.err != nil {
		return w.err
	}
	for i := range w.packed {
		w.packed[i] = 0
	}
	for _, d := range syndrome {
		if d < 0 || d >= w.h.NumDetectors {
			w.err = fmt.Errorf("stream: detector %d outside [0, %d)", d, w.h.NumDetectors)
			return w.err
		}
		w.packed[d>>3] |= 1 << uint(d&7)
	}
	return w.WriteFrame(w.packed, obs)
}

// Frame is one decoded trace record. Packed aliases Reader scratch and is
// valid only until the next Next call; Syndrome copies out of it.
type Frame struct {
	Obs    uint64
	Packed []byte
}

// Syndrome appends the fired detector indices (ascending) to buf and
// returns it — the decoder-input form of the frame.
func (f *Frame) Syndrome(buf []int) []int {
	for i, b := range f.Packed {
		for ; b != 0; b &= b - 1 {
			buf = append(buf, i*8+bits.TrailingZeros8(b))
		}
	}
	return buf
}

// Reader parses a trace from any io.Reader. Not safe for concurrent use.
type Reader struct {
	r       io.Reader
	h       Header
	version int
	fbytes  int
	buf     []byte  // scratch: one frame payload + crc
	lenBuf  [4]byte // scratch: frame length prefix (a field so Next stays allocation-free)
	frames  uint64
	err     error // sticky terminal state (including io.EOF)
}

// NewReader reads and validates the trace header from r, accepting both
// the current version and v1 (whose round fields read as zero).
func NewReader(r io.Reader) (*Reader, error) {
	// Read magic + version + flags first; the rest of the header is
	// version-dependent.
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:headerPre]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrFormat)
		}
		return nil, err
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	version := binary.LittleEndian.Uint16(hdr[len(magic):])
	bodyLen := headerBodyFor(version)
	if bodyLen == 0 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, version)
	}
	total := len(magic) + bodyLen + 4
	if _, err := io.ReadFull(r, hdr[headerPre:total]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrFormat)
		}
		return nil, err
	}
	body := hdr[len(magic) : len(magic)+bodyLen]
	wantCRC := binary.LittleEndian.Uint32(hdr[len(magic)+bodyLen:])
	if crc32.Checksum(hdr[:len(magic)+bodyLen], crcTable) != wantCRC {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrFormat)
	}
	h := Header{
		NumDetectors: int(binary.LittleEndian.Uint32(body[4:])),
		NumObs:       int(binary.LittleEndian.Uint32(body[8:])),
		Tenant:       binary.LittleEndian.Uint32(body[12:]),
		Seed:         binary.LittleEndian.Uint64(body[32:]),
		Shots:        binary.LittleEndian.Uint64(body[40:]),
	}
	copy(h.Fingerprint[:], body[16:32])
	if version >= 2 {
		h.Rounds = int(binary.LittleEndian.Uint32(body[48:]))
		h.DetPerRound = int(binary.LittleEndian.Uint32(body[52:]))
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	tr := &Reader{r: r, h: h, version: int(version), fbytes: h.frameBytes()}
	tr.buf = make([]byte, 8+tr.fbytes+4)
	return tr, nil
}

// Version returns the format version of the trace being read.
func (r *Reader) Version() int { return r.version }

// Header returns the parsed trace header.
func (r *Reader) Header() Header { return r.h }

// FrameBytes returns the packed detector payload size of this trace.
func (r *Reader) FrameBytes() int { return r.fbytes }

// Frames returns how many complete frames have been delivered.
func (r *Reader) Frames() uint64 { return r.frames }

// Complete reports whether the stream delivered everything the header
// promised (always true for open-ended streams once EOF is reached).
func (r *Reader) Complete() bool {
	return r.h.Shots == 0 || r.frames >= r.h.Shots
}

// Next reads the next frame into f. It returns io.EOF at a clean end of a
// complete trace, ErrTruncated when the stream stops mid-frame (or, for
// headers with a shot count, at a boundary before the promised count), and
// ErrCorrupt on framing or CRC damage. The error is sticky.
func (r *Reader) Next(f *Frame) error {
	if r.err != nil {
		return r.err
	}
	if _, err := io.ReadFull(r.r, r.lenBuf[:]); err != nil {
		switch err {
		case io.EOF:
			if !r.Complete() {
				r.err = fmt.Errorf("%w: %d of %d promised frames", ErrTruncated, r.frames, r.h.Shots)
			} else {
				r.err = io.EOF
			}
		case io.ErrUnexpectedEOF:
			r.err = fmt.Errorf("%w: partial length prefix after frame %d", ErrTruncated, r.frames)
		default:
			r.err = err
		}
		return r.err
	}
	if got := binary.LittleEndian.Uint32(r.lenBuf[:]); got != uint32(8+r.fbytes) {
		r.err = fmt.Errorf("%w: frame %d length %d, want %d", ErrCorrupt, r.frames, got, 8+r.fbytes)
		return r.err
	}
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w: partial frame %d", ErrTruncated, r.frames)
		} else {
			r.err = err
		}
		return r.err
	}
	payload := r.buf[:8+r.fbytes]
	wantCRC := binary.LittleEndian.Uint32(r.buf[8+r.fbytes:])
	if crc32.Checksum(payload, crcTable) != wantCRC {
		r.err = fmt.Errorf("%w: frame %d CRC mismatch", ErrCorrupt, r.frames)
		return r.err
	}
	f.Obs = binary.LittleEndian.Uint64(payload)
	f.Packed = payload[8:]
	r.frames++
	return nil
}
