package lda

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"toppriv/internal/frame"
)

// modelMagic opens a model file. One frame (package frame) follows it,
// whose payload is, in order: K and V (uvarints); α and β (float64
// bits); the prior (K float64 bits); the terms (V uvarint lengths, each
// followed by its bytes); and Φ, row by row (K × V float32 bits). Every
// number is little-endian.
const modelMagic = "TPLM1\n"

// Save writes the model as modelMagic and one checksummed frame.
func (m *Model) Save(w io.Writer) error {
	if err := m.validate(); err != nil {
		return err
	}
	b := append([]byte(modelMagic), make([]byte, frame.Header)...)
	b = binary.AppendUvarint(b, uint64(m.K))
	b = binary.AppendUvarint(b, uint64(m.V))
	for _, x := range append([]float64{m.Alpha, m.Beta}, m.Prior...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	for _, t := range m.Terms {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	for t := 0; t < m.K; t++ {
		for _, x := range m.phi.entries(t) {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	if len(b)-len(modelMagic)-frame.Header > math.MaxUint32 {
		return fmt.Errorf("lda: save: a %d B model does not fit one frame", len(b))
	}
	frame.Seal(b[len(modelMagic):])
	_, err := w.Write(b)
	return err
}

// Load reads a model written by Save and validates it: its checksum,
// its shape, and that Φ's rows and the prior are distributions and α
// and β are positive. A file may come from anywhere, and inference
// trusts every number in it: one NaN in Φ makes every (ε1, ε2)
// comparison false, so a query with that word would go out as a cycle
// of one with no intention topic and pass the check.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lda: load: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(modelMagic)) {
		return nil, errors.New("lda: load: not a TPLM1 model file; a gob model saved by an older build is not read: retrain it with cmd/ldatrain")
	}
	data = data[len(modelMagic):]
	rd, err := frame.OpenReader(data, uint32(min(len(data), math.MaxUint32)), "lda: load")
	if err != nil {
		return nil, err
	}
	// Each topic takes at least its prior's 8 B, and each word its
	// length byte and its K entries of Φ.
	m := &Model{K: rd.Count(8)}
	m.V = rd.Count(1 + 4*m.K)
	m.Alpha, m.Beta = rd.Float("alpha"), rd.Float("beta")
	m.Prior = make([]float64, m.K)
	for t := range m.Prior {
		m.Prior[t] = rd.Float("prior")
	}
	m.Terms = make([]string, m.V)
	for w := range m.Terms {
		m.Terms[w] = rd.Str()
	}
	// Φ takes the rest, exactly.
	if rd.Err == nil && len(rd.B) != 4*m.K*m.V {
		rd.Failf("Phi takes %d B, %d left", 4*m.K*m.V, len(rd.B))
	}
	if rd.Err != nil {
		return nil, rd.Err
	}
	if err := m.checkShape(); err != nil {
		return nil, err
	}
	// The file's rows are dense; the values are checked on them before
	// the sparse rows are built.
	at := func(t, w int) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(rd.B[4*(t*m.V+w):]))
	}
	if err := m.checkValues(at); err != nil {
		return nil, err
	}
	m.phi = newPhi(m.K, m.V, at)
	return m, nil
}

// checkValues refuses a non-finite or non-positive α or β, and a Φ row
// or prior with an entry that is not finite and ≥ 0 or a sum off 1 by
// more than 1e-6. Entry w of Φ's row t is at(t, w). It needs
// checkShape's shapes.
func (m *Model) checkValues(at func(t, w int) float32) error {
	if !(m.Alpha > 0) || math.IsInf(m.Alpha, 1) || !(m.Beta > 0) || math.IsInf(m.Beta, 1) {
		return fmt.Errorf("lda: Alpha = %v, Beta = %v, need finite values > 0", m.Alpha, m.Beta)
	}
	for t := 0; t < m.K; t++ {
		sum := 0.0
		for w := 0; w < m.V; w++ {
			x := at(t, w)
			if !(x >= 0) || math.IsInf(float64(x), 1) {
				return fmt.Errorf("lda: Phi of topic %d, word %d %q = %v, need a finite value >= 0", t, w, m.Terms[w], x)
			}
			sum += float64(x)
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
// sum in float64.
func checkDistribution(p []float64) (bad int, sum float64) {
	for i, x := range p {
		if !(x >= 0) || math.IsInf(x, 1) {
			return i, 0
		}
		sum += x
	}
	return -1, sum
}
