package tlssim

import "io"

// ReadRecord exposes readRecord to the external tests.
func ReadRecord(r io.Reader) (typ uint8, ver Version, payload []byte, err error) {
	var hdr [recordHeaderLen]byte
	return readRecord(r, &hdr)
}
