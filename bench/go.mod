// The benchmark is a module of its own so the parent module's build, vet and
// test commands never compile it; the dosn/ path prefix is what lets it
// import the parent's internal packages.
module dosn/bench

go 1.24

require dosn v0.0.0

replace dosn => ../
