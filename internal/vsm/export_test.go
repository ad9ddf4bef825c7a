package vsm

// withDensity makes every flat scan of e send every member down the
// dense path (allDense) or the sparse one (allSparse), or back to
// denseRule (byRule), and returns e.
func (e *Engine) withDensity(d density) *Engine {
	e.density = d
	return e
}
