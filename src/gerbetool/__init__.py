"""Circle-equivariant spectral and gerbe-curvature check toolkit.

Modules
-------
spectral   twisted circle Dirac spectra, spectral cuts, flow counting
detline    determinant lines over spectral bands and the cocycle check
fock       Fock space as int64 mask blocks, currents, Bogoliubov transport
liealg     su(n) bases and coefficients; trivial, fundamental, adjoint representations
grids      periodic grid forms, stencil derivatives, exterior derivative
caloron    sampled connections over S1 x T^d and curvature identities
presets    the caloron battery's su(2) family and the test holonomies
moduli     surface-group representations and the curvature pairing
cli        scenario runner with JSON reports (`gerbetool` entry point)
"""
