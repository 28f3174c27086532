"""The public records keep their value semantics: equality and hashing by
value within one type, the repr text, immutability, and the constructors
callers use."""

import re
from fractions import Fraction

import pytest

from gridideals import covering, game, gridmaps, monotone, presentations, transfer


# one partition, so that two calls of _records build equal records
_DYADIC = gridmaps.dyadic_partition()


def _records():
    part = covering.CoverPart("sparse-chain", ((0, 5), (1, 4)))
    column = monotone.ColumnSpec("nondecreasing", Fraction(3, 2), abs)
    return {
        "CoverPart": part,
        "CoverCertificate": covering.CoverCertificate((part,)),
        "SparsityWitness": covering.SparsityWitness(((0, 5), (1, 4)), 1),
        "SetDescriptor": presentations.SetDescriptor.build([1, 2, 5], [(7, 3)], [(9, 9)]),
        "IdealPresentation": presentations.wr_pi(gridmaps.MAX_RANK),
        "RankMap": gridmaps.SKEW_RANK,
        "IndexPointMap": gridmaps.WEDGE_ZIGZAG,
        "PartitionWitness": _DYADIC,
        "PartitionEmbedding": gridmaps.partition_to_embedding(_DYADIC, 8),
        "Infinity": -monotone.INF,
        "ColumnSpec": monotone.ColumnSpec("nonincreasing", monotone.INF, abs, threshold=2),
        "SequenceFamily": monotone.SequenceFamily((column,), 24),
        "MonCertificate": monotone.MonCertificate(
            (0, 3), ((0, 0), (1, 1)), "increasing", (covering.SparsityWitness(((0, 0),), 0),)
        ),
        "VerifyResult": monotone.VerifyResult(False, ("index order",)),
        "GameState": game.GameState(presentations.WR, [(presentations.empty_set(), (0, 1))], 7),
        "DecompositionReport": transfer.DecompositionReport(
            ((1, 2),), (), ((3, 4),), True, True, False
        ),
    }


# recorded from the frozen dataclasses these records replaced, with
# function addresses dropped
REPRS = {
    "CoverPart": "CoverPart(kind='sparse-chain', members=((0, 5), (1, 4)))",
    "CoverCertificate": "CoverCertificate(parts=(CoverPart(kind='sparse-chain', members=((0, 5), (1, 4))),))",
    "SparsityWitness": "SparsityWitness(points=((0, 5), (1, 4)), level=1)",
    "SetDescriptor": "SetDescriptor(columns=((1, 2), (5, 5)), tails=((7, 3),), points=frozenset({(9, 9)}))",
    "IdealPresentation": "IdealPresentation(family='WRpi', rank_map=RankMap(name='max-rank', fn=<function <lambda>>, preimages_fn=<function _max_preimages>), left=None, right=None, base=None, carrier=None)",
    "RankMap": "RankMap(name='skew-rank', fn=<function <lambda>>, preimages_fn=<function _skew_preimages>)",
    "IndexPointMap": "IndexPointMap(name='wedge-zigzag', to_point=<function wedge_zigzag_point>, to_index=<function wedge_zigzag_index>)",
    "PartitionWitness": "PartitionWitness(class_of=<function dyadic_partition.<locals>.class_of>, nth_of_class=<function dyadic_partition.<locals>.nth>, rank_of=<function dyadic_partition.<locals>.rank_of>, all_infinite=True, name='dyadic')",
    "PartitionEmbedding": "PartitionEmbedding(witness=PartitionWitness(class_of=<function dyadic_partition.<locals>.class_of>, nth_of_class=<function dyadic_partition.<locals>.nth>, rank_of=<function dyadic_partition.<locals>.rank_of>, all_infinite=True, name='dyadic'), window=8, mode='general')",
    "Infinity": "Infinity(sign=-1)",
    "ColumnSpec": "ColumnSpec(mode='nonincreasing', limit=Infinity(sign=1), term=<built-in function abs>, jmap=<function _identity>, threshold=2)",
    "SequenceFamily": "SequenceFamily(columns=(ColumnSpec(mode='nondecreasing', limit=Fraction(3, 2), term=<built-in function abs>, jmap=<function _identity>, threshold=0),), depth=24)",
    "MonCertificate": "MonCertificate(indices=(0, 3), points=((0, 0), (1, 1)), direction='increasing', witnesses=(SparsityWitness(points=((0, 0),), level=0),), case='')",
    "VerifyResult": "VerifyResult(ok=False, reasons=('index order',))",
    "GameState": "GameState(presentation=IdealPresentation(family='WR', rank_map=None, left=None, right=None, base=None, carrier=None), moves=[(SetDescriptor(columns=(), tails=(), points=frozenset()), (0, 1))], seed=7)",
    "DecompositionReport": "DecompositionReport(remainder_preimage=((1, 2),), block_preimage_even=(), block_preimage_odd=((3, 4),), remainder_ok=True, even_ok=True, odd_ok=False)",
}

# records holding dicts or a move list were never hashable
UNHASHABLE = {"PartitionEmbedding", "GameState"}
MUTABLE = {"GameState"}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_semantics(name):
    first, second = _records()[name], _records()[name]
    assert re.sub(" at 0x[0-9a-f]+", "", repr(first)) == REPRS[name]
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    field = re.match(r"\w+\((\w+)=", REPRS[name]).group(1)
    if name in MUTABLE:
        setattr(first, field, getattr(second, field))
    else:
        with pytest.raises(AttributeError):
            setattr(first, field, getattr(second, field))


def test_records_differ_by_value():
    assert covering.SparsityWitness(((0, 5),), 0) != covering.SparsityWitness(((0, 5),), 1)
    assert monotone.INF != -monotone.INF and -monotone.INF < monotone.INF
    assert monotone.INF > Fraction(10**9) and -monotone.INF < -(10**9)
    assert monotone.INF - Fraction(1, 2) is monotone.INF
    assert not monotone.VerifyResult(False) and monotone.VerifyResult(True)


def test_game_state_constructors():
    wr = presentations.WR
    moves = [(presentations.empty_set(), (0, 1))]
    state = game.GameState(wr)
    assert state.moves == [] and state.seed is None and state.round == 0
    assert game.GameState(wr).moves is not state.moves
    assert game.GameState(wr, moves, 7) == game.GameState(wr, moves=moves, seed=7)
    assert game.GameState(wr, seed=7).seed == 7
    state.moves.append(moves[0])
    assert state.picks() == ((0, 1),) and state.round == 1
