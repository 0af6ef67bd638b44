"""Reed-Solomon erasure coding over GF(2^8), from scratch.

StreamLake stores data with erasure coding instead of 3x replication,
raising disk utilization from 33% to 91% (Section I) and producing the
space-vs-fault-tolerance curves of Fig 14(d).  This module implements a
systematic Reed-Solomon code: ``k`` data shards plus ``m`` parity shards
tolerate any ``m`` erasures.

The construction is the classic one used by jerasure/ISA-L:

1. build an ``(k + m) x k`` Vandermonde matrix over GF(2^8);
2. make it systematic (top ``k`` rows = identity) by multiplying with the
   inverse of its top square block, so data shards are stored verbatim;
3. encode: parity rows of the matrix times the data;
4. decode: gather any ``k`` surviving rows of the matrix, invert that
   square matrix, multiply by the surviving shards.

Field arithmetic uses exp/log tables (generator polynomial 0x11D) baked
into a 256 x 256 product table; a matrix-shard product is one table gather
per non-zero coefficient, which keeps encode/decode of multi-megabyte
shards fast enough for the benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.common import stats
from repro.errors import UnrecoverableDataError

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

# --- GF(2^8) tables -------------------------------------------------------


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    # duplicate so exp[log a + log b] never needs a modulo
    exp[255:510] = exp[0:255]
    return exp, log


_EXP, _LOG = _build_tables()

# Padded log/exp pair for branch-free vectorized products: log(0) maps to
# 512, and the exp table's tail is zero, so any sum involving a zero
# operand (>= 512) looks up 0 without a mask pass.  Valid nonzero sums are
# at most 254 + 254 = 508.
_LOG_PAD = _LOG.astype(np.int32).copy()
_LOG_PAD[0] = 512
_EXP_PAD = np.zeros(1025, dtype=np.uint8)
_EXP_PAD[:510] = _EXP[:510]
#: full GF(2^8) product table (256 x 256, 64 KiB): _MUL[a, b] = a * b
_MUL = _EXP_PAD[_LOG_PAD[:, None] + _LOG_PAD[None, :]]


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(_EXP[255 - _LOG[a]])


def gf_pow(a: int, n: int) -> int:
    """a**n in the field (a != 0 or n > 0)."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * n) % 255])


def _vec_mul(scalar: int, vector: np.ndarray) -> np.ndarray:
    """scalar * vector over GF(2^8): one gather from the product table."""
    return _MUL[scalar][vector]


def _matrix_invert(matrix: np.ndarray,
                   shard_set: list[int] | None = None) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    ``shard_set`` names the shard rows the matrix was gathered from; a
    singular matrix then reports exactly which shard combination failed
    instead of surfacing a bare ``ZeroDivisionError`` from ``gf_inv(0)``.
    """
    size = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(size, dtype=np.uint8)
    for col in range(size):
        pivot_row = next(
            (row for row in range(col, size) if work[row, col] != 0), None
        )
        if pivot_row is None:
            detail = (
                f" (gathered from shards {shard_set})"
                if shard_set is not None else ""
            )
            raise UnrecoverableDataError(
                f"singular decode matrix at column {col}: the surviving "
                f"shard set cannot reconstruct the data{detail}"
            )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = gf_inv(int(work[col, col]))
        work[col] = _vec_mul(pivot_inv, work[col])
        inverse[col] = _vec_mul(pivot_inv, inverse[col])
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            work[row] ^= _vec_mul(factor, work[col])
            inverse[row] ^= _vec_mul(factor, inverse[col])
    return inverse


def _matmul(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """(rows x k) matrix times (k x length) shard block over GF(2^8).

    One 1-D gather per non-zero coefficient: ``_MUL[coef]`` is that
    coefficient's 256-entry product row (the table bakes the log/exp
    arithmetic, zero operands included), ``take`` maps a whole shard
    through it, and the products XOR into the output row in place.
    Coefficient 1 is a plain XOR and 0 contributes nothing, so the only
    temporary is one shard long.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    shards = np.ascontiguousarray(shards, dtype=np.uint8)
    out = np.zeros((matrix.shape[0], shards.shape[1]), dtype=np.uint8)
    for acc, coefficients in zip(out, matrix.tolist()):
        for coefficient, shard in zip(coefficients, shards):
            if coefficient == 1:
                acc ^= shard
            elif coefficient:
                acc ^= _MUL[coefficient].take(shard)
    return out


# --- Reed-Solomon codec ---------------------------------------------------


class ReedSolomon:
    """Systematic RS(k + m, k) codec: k data shards, m parity shards.

    ``k + m`` must not exceed 255 (field size minus one distinct
    Vandermonde evaluation point each).
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1 or parity_shards < 0:
            raise ValueError("need data_shards >= 1 and parity_shards >= 0")
        if data_shards + parity_shards > 255:
            raise ValueError("RS over GF(2^8) supports at most 255 total shards")
        self.k = data_shards
        self.m = parity_shards
        self.matrix = self._systematic_matrix(self.k, self.m)

    @staticmethod
    def _systematic_matrix(k: int, m: int) -> np.ndarray:
        rows = k + m
        vandermonde = np.zeros((rows, k), dtype=np.uint8)
        for row in range(rows):
            for col in range(k):
                vandermonde[row, col] = gf_pow(row + 1, col)
        top_inverse = _matrix_invert(vandermonde[:k])
        systematic = _matmul(
            vandermonde, top_inverse.astype(np.uint8).reshape(k, k)
        )
        # sanity: top block must be identity after the transform
        assert np.array_equal(systematic[:k], np.eye(k, dtype=np.uint8))
        return systematic

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per user byte, e.g. 1.5 for RS(4+2)."""
        return (self.k + self.m) / self.k

    def shard_length(self, data_length: int) -> int:
        """Per-shard byte length for a payload of ``data_length`` bytes."""
        return -(-data_length // self.k)  # ceil division

    def _data_block(self, data: bytes) -> np.ndarray:
        length = self.shard_length(len(data))
        padded = np.zeros(length * self.k, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return padded.reshape(self.k, length)

    def encode(self, data: bytes) -> list[bytes]:
        """Split ``data`` into k shards, append m parity shards.

        The payload is zero-padded to a multiple of k; callers must remember
        the original length for :meth:`decode`.
        """
        ingest = stats.ingest_stats()
        ingest.ec_encode_calls += 1
        ingest.ec_payloads_encoded += 1
        data_block = self._data_block(data)
        parity_block = _matmul(self.matrix[self.k :], data_block)
        shards = [data_block[i].tobytes() for i in range(self.k)]
        shards.extend(parity_block[i].tobytes() for i in range(self.m))
        return shards

    @staticmethod
    def count_batch_encode(payload_count: int) -> None:
        """Charge the counters one counted :meth:`encode_batch` of
        ``payload_count`` payloads would have charged.

        The write wave (:mod:`repro.parallel.ingest`) encodes its
        partitions with ``counted=False`` and then calls this once, so
        the counters show one encode per group commit at every width.
        """
        ingest = stats.ingest_stats()
        ingest.ec_encode_calls += 1
        ingest.ec_payloads_encoded += payload_count

    def encode_batch(self, payloads: list[bytes], *,
                     counted: bool = True) -> list[list[bytes]]:
        """Encode many payloads with one parity matmul.

        The per-payload data blocks (each ``(k, shard_len_i)``) are stacked
        along the shard-length axis into one ``(k, sum(shard_len_i))``
        matrix, so N slice seals pay for one round of table gathers, not N.
        Shard lengths per payload are identical to per-payload
        :meth:`encode`.  ``counted=False`` skips the stats charge (see
        :meth:`count_batch_encode`).
        """
        if not payloads:
            return []
        if counted:
            self.count_batch_encode(len(payloads))
        blocks = [self._data_block(payload) for payload in payloads]
        stacked = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        parity_all = _matmul(self.matrix[self.k :], stacked)
        out: list[list[bytes]] = []
        cursor = 0
        for block in blocks:
            length = block.shape[1]
            parity = parity_all[:, cursor:cursor + length]
            shards = [block[i].tobytes() for i in range(self.k)]
            shards.extend(parity[i].tobytes() for i in range(self.m))
            out.append(shards)
            cursor += length
        return out

    def decode(self, shards: list[bytes | None], data_length: int) -> bytes:
        """Recover the original payload from any >= k surviving shards.

        ``shards`` lists all k+m positions with ``None`` at erasures.
        """
        if len(shards) != self.k + self.m:
            raise ValueError(
                f"expected {self.k + self.m} shard slots, got {len(shards)}"
            )
        survivors = [i for i, shard in enumerate(shards) if shard is not None]
        if len(survivors) < self.k:
            lost = [i for i in range(self.k + self.m) if shards[i] is None]
            raise UnrecoverableDataError(
                f"only {len(survivors)} shards survive, need {self.k}: "
                f"lost shards {lost} exceed the {self.m} erasures "
                f"RS({self.k}+{self.m}) tolerates",
                failed_shards=lost,
            )
        chosen = survivors[: self.k]
        if chosen == list(range(self.k)):
            # fast path: all data shards intact
            data = b"".join(shards[i] for i in range(self.k))  # type: ignore[misc]
            return data[:data_length]
        length = len(shards[chosen[0]])  # type: ignore[arg-type]
        sub_matrix = self.matrix[chosen]
        sub_shards = np.stack(
            [np.frombuffer(shards[i], dtype=np.uint8) for i in chosen]  # type: ignore[arg-type]
        )
        if sub_shards.shape[1] != length:
            raise ValueError("surviving shards have inconsistent lengths")
        decode_matrix = _matrix_invert(sub_matrix, shard_set=chosen)
        recovered = _matmul(decode_matrix, sub_shards)
        return recovered.reshape(-1).tobytes()[:data_length]

    def reconstruct_shard(self, shards: list[bytes | None], index: int,
                          data_length: int) -> bytes:
        """Rebuild a single lost shard (repair path after a disk failure)."""
        data = self.decode(shards, data_length)
        return self.encode(data)[index]
