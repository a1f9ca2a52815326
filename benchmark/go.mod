module hyrisenv/benchmark

go 1.22

require hyrisenv v0.0.0

replace hyrisenv => ../
