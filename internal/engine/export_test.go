package engine

// RandHypergraph exposes the random data generator to the external
// engine_test package.
var RandHypergraph = randHypergraph
