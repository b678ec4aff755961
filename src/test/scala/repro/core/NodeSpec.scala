package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.dna.PackedSeq

class NodeSpec extends AnyFunSuite {

  def node(id: Long, edges: Edge*): Node =
    Node(id, PackedSeq.fromString("ACGTA"), edges.toVector, 0L)

  def e(nbr: Long, mySide: Int, nbrSide: Int = Side.Left): Edge =
    Edge(nbr, mySide, nbrSide, 1L)

  test("one edge on one side is type <1>") {
    assert(node(1, e(2, Side.Right)).typ == VType.One)
    assert(node(1, e(2, Side.Left)).typ == VType.One)
  }

  test("one edge per side is type <1-1>") {
    assert(node(1, e(2, Side.Left), e(3, Side.Right)).typ == VType.OneOne)
  }

  test("two edges on the same side is ambiguous <m-n>") {
    assert(node(1, e(2, Side.Right), e(3, Side.Right)).typ == VType.MN)
  }

  test("three or more edges is ambiguous <m-n>") {
    assert(node(1, e(2, Side.Left), e(3, Side.Right), e(4, Side.Right)).typ == VType.MN)
  }

  test("a self-loop makes a vertex ambiguous regardless of degree") {
    assert(node(1, e(1, Side.Right)).typ == VType.MN)
    assert(node(1, e(1, Side.Left), e(2, Side.Right)).typ == VType.MN)
  }

  test("an isolated node (possible for contigs) is a dead-end <1>") {
    assert(node(1).typ == VType.One)
  }

  test("edgesOn partitions edges by side") {
    val n = node(1, e(2, Side.Left), e(3, Side.Right), e(4, Side.Right))
    assert(n.edgesOn(Side.Left).map(_.nbr) == Vector(2L))
    assert(n.edgesOn(Side.Right).map(_.nbr) == Vector(3L, 4L))
  }

  test("soleEdge is defined only for degree-1 nodes") {
    assert(node(1, e(2, Side.Right)).soleEdge.map(_.nbr).contains(2L))
    assert(node(1).soleEdge.isEmpty)
    assert(node(1, e(2, Side.Left), e(3, Side.Right)).soleEdge.isEmpty)
  }

  test("Side.other flips sides") {
    assert(Side.other(Side.Left) == Side.Right)
    assert(Side.other(Side.Right) == Side.Left)
  }

  test("both neighbours the same vertex on opposite sides is a 2-cycle <1-1>") {
    assert(node(1, e(2, Side.Left), e(2, Side.Right)).typ == VType.OneOne)
  }

  test("property: the one-pass typ equals the edgesOn-based definition") {
    def reference(n: Node): VType =
      if (n.edges.exists(_.nbr == n.id)) VType.MN
      else (n.edgesOn(Side.Left).size, n.edgesOn(Side.Right).size) match {
        case (0, 0) | (1, 0) | (0, 1) => VType.One
        case (1, 1)                   => VType.OneOne
        case _                        => VType.MN
      }
    // Neighbours 1-3 of node 1: self-loops and parallel edges are common,
    // and a fifth of the nodes are isolated.
    val edge = for {
      nbr     <- Gen.choose(1L, 3L)
      mySide  <- Gen.oneOf(Side.Left, Side.Right)
      nbrSide <- Gen.oneOf(Side.Left, Side.Right)
    } yield e(nbr, mySide, nbrSide)
    val nodes = Gen.choose(0, 4).flatMap(Gen.listOfN(_, edge)).map(es => node(1, es: _*))
    val seen = scala.collection.mutable.Set.empty[String]
    val prop = Prop.forAllNoShrink(nodes) { n =>
      if (n.edges.isEmpty) seen += "isolated"
      if (n.edges.exists(_.nbr == n.id)) seen += "self-loop"
      if (n.edges.groupBy(_.nbr).exists(_._2.size > 1)) seen += "parallel"
      seen += reference(n).toString
      n.typ == reference(n)
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(13))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
    assert(seen == Set("isolated", "self-loop", "parallel", "One", "OneOne", "MN"))
  }
}
