module github.com/lpd-epfl/mvtl/benchmarks

go 1.24

require github.com/lpd-epfl/mvtl v0.0.0

replace github.com/lpd-epfl/mvtl => ../
