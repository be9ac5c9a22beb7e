// The benchmark is a module of its own so that it builds from its own
// directory and no file of the main module has to name it. Its import
// path sits under txconcur/, which is what lets it reach the
// txconcur/internal/... packages through the replace below.
module txconcur/benchmarks

go 1.24

require txconcur v0.0.0

replace txconcur => ../
