module github.com/niid-bench/niidbench/benchmark

go 1.24

require github.com/niid-bench/niidbench v0.0.0

replace github.com/niid-bench/niidbench => ../
