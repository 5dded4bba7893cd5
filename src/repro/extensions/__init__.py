"""Model-only extensions of the paper's future-work list (§IV, §V).

Nothing here is on the production flow: :mod:`repro.core` is the paper's
compile flow plus the one executor, and these modules only *read* its
products.

* :mod:`repro.extensions.pruning` — event-based pruning over the
  reference interpreter, and the pruned performance model (§IV);
* :mod:`repro.extensions.multigpu` — multi-GPU block planning and the
  scaling model (§V).
"""
