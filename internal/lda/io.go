package lda

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
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

// Load deserializes a model written by Save and validates it: its shape,
// and that Φ's rows and the prior are distributions and α and β are
// positive. A file may come from anywhere, and inference trusts every
// number in it: one NaN in Φ makes every (ε1, ε2) comparison false, so a
// query with that word would go out as a cycle of one with no intention
// topic and pass the check.
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
	if err := m.checkValues(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkValues refuses a non-finite or non-positive α or β, and a Φ row
// or prior with an entry that is not finite and ≥ 0 or a sum off 1 by
// more than 1e-6. It needs validate's shapes.
func (m *Model) checkValues() error {
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 1) || !(m.Beta > 0) || math.IsInf(m.Beta, 1) {
		return fmt.Errorf("lda: Alpha = %v, Beta = %v, need finite values > 0", m.Alpha, m.Beta)
	}
	for t, row := range m.Phi {
		w, sum := checkDistribution(row)
		if w >= 0 {
			return fmt.Errorf("lda: Phi of topic %d, word %d %q = %v, need a finite value >= 0", t, w, m.Terms[w], row[w])
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("lda: Phi of topic %d sums to %v, need 1", t, sum)
		}
	}
	t, sum := checkDistribution(m.Prior)
	if t >= 0 {
		return fmt.Errorf("lda: Prior[%d] = %v, need a finite value >= 0", t, m.Prior[t])
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("lda: Prior sums to %v, need 1", sum)
	}
	return nil
}

// checkDistribution returns the index of p's first entry that is not
// finite and ≥ 0 (-1 when there is none) and, when there is none, p's
// sum.
func checkDistribution(p []float64) (bad int, sum float64) {
	for i, x := range p {
		if !(x >= 0) || math.IsInf(x, 1) {
			return i, 0
		}
		sum += x
	}
	return -1, sum
}
