module spgcnn/benchmark

go 1.22

require spgcnn v0.0.0

replace spgcnn => ../
