module varade/bench

go 1.21

require varade v0.0.0

replace varade => ../
