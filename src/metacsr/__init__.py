"""metaCSR: cold-start sequential recommendation at desk scale.

Components: a bipartite interaction graph with stacked convolution
(diffusion) embeddings, a masked bidirectional self-attention sequence
encoder, pairwise ranking training, and an episodic meta-learner that
adapts the sequence parameters to new users from a handful of behaviors.

On glibc, importing the package keeps freed heap memory mapped. Training
is thousands of small steps, each allocating and freeing the same numpy
temporaries. By default glibc returns the top of the heap to the kernel
when a step's tapes are freed, and the next step page-faults it back in:
about 1,700 minor faults per criterion-6 meta step, roughly a tenth of its
time. :func:`_keep_freed_heap` raises the mmap threshold to glibc's 32 MiB
ceiling and the trim threshold to 1 GiB, so those blocks stay mapped for
reuse. Numbers are unchanged; where libc has no ``mallopt`` or refuses a
value, nothing is changed.
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameters and the largest mmap threshold it accepts
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _keep_freed_heap() -> bool:
    """Set glibc's heap policy so freed blocks stay mapped; True when both
    values were accepted.

    Both are set, the mmap threshold first: setting either one alone turns
    off glibc's dynamic mmap threshold, and with the trim threshold alone
    every mid-sized array is mapped and unmapped again. If the mmap
    threshold is refused, the trim threshold is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


_keep_freed_heap()
