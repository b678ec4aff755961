package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dna.{Dna, Kmer}
import scala.util.Random

class KmerAdjSpec extends AnyFunSuite {

  def randomSeq(rnd: Random, len: Int): String =
    (0 until len).map(_ => "ACGT"(rnd.nextInt(4))).mkString

  test("incidences of e and rc(e) are identical (strand invariance)") {
    val rnd = new Random(30)
    for (_ <- 1 to 300) {
      val k = 3 + 2 * rnd.nextInt(15)
      val e = Kmer.pack(randomSeq(rnd, k + 1))
      val er = Kmer.rc(e, k + 1)
      assert(KmerAdj.incidences(e, k).toSet == KmerAdj.incidences(er, k).toSet)
    }
  }

  test("incidence endpoints are the canonical prefix and suffix k-mers") {
    val rnd = new Random(31)
    for (_ <- 1 to 200) {
      val k = 3 + 2 * rnd.nextInt(15)
      val s = randomSeq(rnd, k + 1)
      val e = Kmer.pack(s)
      val expected = Set(
        Kmer.canonical(Kmer.pack(s.substring(0, k)), k),
        Kmer.canonical(Kmer.pack(s.substring(1)), k))
      assert(KmerAdj.incidences(e, k).map(_._1).toSet == expected)
    }
  }

  test("decodeSlot reconstructs the opposite endpoint of every incidence") {
    val rnd = new Random(32)
    for (_ <- 1 to 300) {
      val k = 3 + 2 * rnd.nextInt(15)
      val s = randomSeq(rnd, k + 1)
      val e = Kmer.canonical(Kmer.pack(s), k + 1)
      val inc = KmerAdj.incidences(e, k)
      if (inc.size == 2) {
        val Seq((u, su), (v, sv)) = inc
        val eu = KmerAdj.decodeSlot(u, k, su, 1L)
        val ev = KmerAdj.decodeSlot(v, k, sv, 1L)
        assert(eu.nbr == v, s"s=$s")
        assert(ev.nbr == u, s"s=$s")
        // the two views describe the same physical edge: sides swap
        assert(eu.mySide == ev.nbrSide && eu.nbrSide == ev.mySide, s"s=$s")
      }
    }
  }

  test("paper Fig 8b example: in-neighbour CGGC of vertex ACGG") {
    // The 5-mer GCCGT creates edge CGGC -> ACGG with polarity <H:H>;
    // normalised at ACGG (Property 1) it is the out-edge <L:L> appending C.
    val k = 4
    val e = Kmer.pack("GCCGT")
    val acgg = Kmer.pack("ACGG")
    val inc = KmerAdj.incidences(e, k).toMap
    assert(inc.contains(acgg))
    val edge = KmerAdj.decodeSlot(acgg, k, inc(acgg), 7L)
    assert(Kmer.unpack(edge.nbr, k) == "CGGC")
    assert(edge.mySide == Side.Right) // our label L
    assert(edge.cov == 7L)
  }

  test("homopolymer (k+1)-mer yields a self-loop with two distinct slots") {
    val k = 3
    val e = Kmer.pack("AAAA")
    val inc = KmerAdj.incidences(e, k)
    assert(inc.size == 2)
    assert(inc.forall(_._1 == Kmer.pack("AAA")))
    assert(inc.map(_._2).distinct.size == 2)
  }

  test("palindromic (k+1)-mer yields a single incidence") {
    val k = 3
    val e = Kmer.pack("ATAT") // rc(ATAT) == ATAT
    assert(Kmer.rc(e, 4) == e)
    val inc = KmerAdj.incidences(e, k)
    assert(inc.size == 1)
  }

  test("fromSlots builds bitmap + coverage list in ascending slot order") {
    val v = KmerAdj.fromSlots(42L, Seq((5, 10L), (1, 3L), (5, 2L)))
    assert(v.bitmap == ((1 << 1) | (1 << 5)))
    assert(v.covs.toSeq == Seq(3L, 12L))
  }

  test("decode materialises one edge per set bit with matching coverage") {
    val k = 5
    val id = Kmer.canonical(Kmer.pack("ACGTA"), k)
    val v  = KmerAdj.fromSlots(id, Seq((0, 4L), (3, 6L), (7, 1L)))
    val n  = KmerAdj.decode(v, k)
    assert(n.id == id)
    assert(n.edges.size == 3)
    assert(n.edges.map(_.cov).sorted == Vector(1L, 4L, 6L))
    assert(n.seq.toString == Kmer.unpack(id, k))
  }

  test("slots with label L attach to the Right side, H to the Left") {
    val k = 5
    val id = Kmer.canonical(Kmer.pack("ACGTA"), k)
    for (b <- 0 until 4) {
      assert(KmerAdj.decodeSlot(id, k, KmerAdj.slot(KmerAdj.L, b), 1).mySide == Side.Right)
      assert(KmerAdj.decodeSlot(id, k, KmerAdj.slot(KmerAdj.H, b), 1).mySide == Side.Left)
    }
  }

  test("a vertex has at most 8 slots: 4 per side") {
    val k = 7
    val id = Kmer.canonical(Kmer.pack(randomSeq(new Random(33), k)), k)
    val edges = (0 until 8).map(s => KmerAdj.decodeSlot(id, k, s, 1))
    assert(edges.count(_.mySide == Side.Right) == 4)
    assert(edges.count(_.mySide == Side.Left) == 4)
  }
}
