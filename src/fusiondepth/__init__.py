"""Self-supervised stereo depth estimation at desk scale.

A from-scratch numpy stack: a rank-4 autodiff engine, a feature-fusion pyramid
network with CoordConv and sub-pixel disparity refinement, the view-synthesis
losses, depth metrics and a synthetic stereo scene generator; the package
imports none of them. It pins BLAS and OpenMP to one thread, overriding the
environment, so a numpy loaded after it gives the same bits on any host."""

import os
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
