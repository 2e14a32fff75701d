"""Self-supervised stereo depth estimation at desk scale.

A from-scratch numpy stack: a rank-4 autodiff engine, a feature-fusion
pyramid network with coordinate-augmented convolutions and sub-pixel
disparity refinement, the view-synthesis training losses, standard depth
metrics, and a synthetic stereo scene generator for end-to-end checks. The
package imports none of these modules; import each by name."""
