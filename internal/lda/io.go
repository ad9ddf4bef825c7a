package lda

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
)

// modelWire is the gob wire form of a Model. Keeping it separate from
// the runtime type lets the in-memory layout evolve without breaking
// saved models. Files saved before the model stopped holding Pr(t|d)
// also carry a Theta field; gob skips a field the target type lacks, so
// they load as they are; an older build reads a file saved now with an
// empty Theta.
type modelWire struct {
	Version     int
	K, V        int
	Alpha, Beta float64
	Phi         [][]float64
	Prior       []float64
	Terms       []string
}

const modelWireVersion = 1

// Save serializes the model with gob.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	err := enc.Encode(modelWire{
		Version: modelWireVersion,
		K:       m.K, V: m.V,
		Alpha: m.Alpha, Beta: m.Beta,
		Phi: m.Phi, Prior: m.Prior, Terms: m.Terms,
	})
	if err != nil {
		return fmt.Errorf("lda: save: %w", err)
	}
	return bw.Flush()
}

// Load deserializes a model written by Save and validates it.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("lda: load: %w", err)
	}
	if wire.Version != modelWireVersion {
		return nil, fmt.Errorf("lda: unsupported model version %d", wire.Version)
	}
	m := &Model{
		K: wire.K, V: wire.V,
		Alpha: wire.Alpha, Beta: wire.Beta,
		Phi: wire.Phi, Prior: wire.Prior, Terms: wire.Terms,
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}
