package textproc

// RefAnalyze exposes the reference pipeline to the external test
// package, whose corpus-scale test needs the corpus package (which
// imports this one).
var RefAnalyze = refAnalyze
