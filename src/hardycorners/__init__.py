"""Projectively invariant Hardy-space machinery on piecewise-smooth domains.

The package evaluates Cauchy-type reproducing kernels written on the
point-hyperplane incidence variety, their smooth-face and corner
specializations on piecewise-smooth boundaries, the edge normal-form
invariants that weight the corner contribution, and the boundary measure
(face density plus weighted edge arc) whose norm is projectively invariant.

Every name is imported from its own module (``from hardycorners.measures
import reproduce``), and a module loads when it is imported: importing the
package itself loads none of them.  :func:`~.measures.reproduce` and
:func:`~.measures.hardy_norm` run :mod:`.domain`, :mod:`.hermpoly`,
:mod:`.kernels`, :mod:`.measures`, :mod:`.projective` and
:mod:`.quadrature`.  :mod:`.incidence` holds the incidence density and the
identities that connect it to the face and corner kernels, which no
integrator runs; :mod:`.normalforms` holds the edge normal forms, which
weight only the boundary measure, so the first measure build imports them.
The command-line program is :mod:`.commands`, and :mod:`.cli` holds what
it shares with library callers: the built-in spec catalog and the parsers
of its arguments.
"""

__version__ = "0.1.0"
