package cluster

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// One framing for everything this package checksums — the placement
// journal's records and the /cluster/batch frames: a uint32
// little-endian payload length, a uint32 little-endian CRC-32 (IEEE)
// over the length bytes followed by the payload, then the payload.
// Covering the length field by the checksum means a corrupted length can
// never silently re-frame a stream: any complete frame that fails its
// CRC is rejected.

const frameHeader = 8

var (
	// errFrameTorn: the input ends before the frame does, or the length
	// field is beyond the caller's bound — which is treated as corruption
	// of the length, never as an allocation request, and cannot be told
	// from a cut.
	errFrameTorn = errors.New("frame cut short or longer than its bound")
	// errFrameChecksum: the frame is all there and fails its CRC.
	errFrameChecksum = errors.New("frame fails its checksum")
)

func frameSum(frame []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(frame[:4]), crc32.IEEETable, frame[frameHeader:])
}

// sealFrame fills in the header of frame, whose first frameHeader bytes
// are reserved and whose remainder is the payload.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:8], frameSum(frame))
}

// openFrame checks the frame at the head of b and returns its payload
// (aliasing b) and its whole size.
func openFrame(b []byte, maxPayload uint32) (payload []byte, size int, err error) {
	if len(b) < frameHeader {
		return nil, 0, errFrameTorn
	}
	length := binary.LittleEndian.Uint32(b[:4])
	if length > maxPayload || int64(length) > int64(len(b)-frameHeader) {
		return nil, 0, errFrameTorn
	}
	size = frameHeader + int(length)
	if frameSum(b[:size]) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errFrameChecksum
	}
	return b[frameHeader:size], size, nil
}
