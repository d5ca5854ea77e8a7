module sagabench/benchmark

go 1.22

require sagabench v0.0.0

replace sagabench => ../
