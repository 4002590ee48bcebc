package proto

import "io"

// Envelope is the frame envelope, for the differential fuzz targets to decode
// into with a plain json.Unmarshal.
type Envelope = envelope

// DecodeEnvelope is the product's decode of a frame body, the step
// readFrameInto and DecodeFrame share.
var DecodeEnvelope = decodeEnvelope

// DeliveryOf is DecodeFrame past the decode, for an envelope decoded
// elsewhere.
func DeliveryOf(env *Envelope, body []byte) (Delivery, error) { return env.delivery(body) }

// readFrame reads one frame into a body of its own.
func readFrame(r io.Reader) (envelope, []byte, error) {
	var body []byte
	return readFrameInto(r, &body)
}
