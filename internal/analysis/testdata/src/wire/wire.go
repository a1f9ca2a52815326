// Package wire is a fixture stub of the real wire protocol with a
// deliberately small enum so exhaustiveness fixtures stay readable.
package wire

import "io"

// Type identifies a protocol frame.
type Type uint8

// Frame types. TypeInvalid is the zero sentinel and is never required
// in switches.
const (
	TypeInvalid Type = iota
	TypePing
	TypeBegin
	TypeError
	TypeBatch
	TypeBatchOK
)

// Version shares the error codes' underlying type but is not part of
// the code enum; wirecodecheck must not demand it in code switches.
const Version uint16 = 1

// Error codes.
const (
	CodeInternal   uint16 = 1
	CodeConflict   uint16 = 2
	CodeBadRequest uint16 = 3
)

// Frame is one protocol message.
type Frame struct {
	Type    Type
	Payload []byte
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) { return Frame{}, nil }

// WriteFrame writes f to w.
func WriteFrame(w io.Writer, f Frame) error { return nil }

// FrameReader reads a stream of frames.
type FrameReader struct{ r io.Reader }

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r} }

// Next reads the next frame.
func (fr *FrameReader) Next() (Frame, error) { return Frame{}, nil }
