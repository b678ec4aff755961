package repro.dna

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class KmerSpec extends AnyFunSuite {

  def randomSeq(rnd: Random, len: Int): String =
    (0 until len).map(_ => "ACGT"(rnd.nextInt(4))).mkString

  test("paper Fig 7a: ID of 5-mer ATTGC") {
    // A T T G C = 00 11 11 10 01 right-aligned = 0b0011111001 = 249
    assert(Kmer.pack("ATTGC") == 249L)
  }

  test("pack/unpack roundtrip over random k-mers") {
    val rnd = new Random(2)
    for (_ <- 1 to 300) {
      val k = 1 + rnd.nextInt(31)
      val s = randomSeq(rnd, k)
      assert(Kmer.unpack(Kmer.pack(s), k) == s)
    }
  }

  test("pack orders k-mers lexicographically (unsigned)") {
    val rnd = new Random(3)
    for (_ <- 1 to 200) {
      val k = 1 + rnd.nextInt(31)
      val a = randomSeq(rnd, k); val b = randomSeq(rnd, k)
      assert((a < b) == (java.lang.Long.compareUnsigned(Kmer.pack(a), Kmer.pack(b)) < 0))
    }
  }

  test("baseAt reads bases left to right") {
    val s = "ATTGC"
    val x = Kmer.pack(s)
    for (i <- s.indices) assert(Dna.char(Kmer.baseAt(x, s.length, i)) == s.charAt(i))
  }

  test("rc agrees with string reverse complement") {
    val rnd = new Random(4)
    for (_ <- 1 to 300) {
      val k = 1 + rnd.nextInt(31)
      val s = randomSeq(rnd, k)
      assert(Kmer.unpack(Kmer.rc(Kmer.pack(s), k), k) == Dna.rc(s))
    }
  }

  /** The reference reverse complement: one base at a time. */
  def rcLoop(x: Long, k: Int): Long = {
    var out = 0L
    var i = 0
    while (i < k) { out = (out << 2) | (((x >>> (2 * i)) & 3L) ^ 3L); i += 1 }
    out
  }

  test("property: bit-parallel rc equals the per-base loop, for k in [1, 32]") {
    val words = Gen.oneOf(Gen.long, Gen.long.map(_ | Long.MinValue)) // half with bit 63 set
    val prop = Prop.forAllNoShrink(words, Gen.choose(1, 32)) { (x, k) =>
      val y = x & Kmer.mask(k)
      Kmer.rc(x, k) == rcLoop(x, k) && Kmer.rc(y, k) == rcLoop(y, k)
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(12))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
  }

  test("rc is an involution on packed form") {
    val rnd = new Random(5)
    for (_ <- 1 to 100) {
      val k = 1 + rnd.nextInt(31)
      val x = Kmer.pack(randomSeq(rnd, k))
      assert(Kmer.rc(Kmer.rc(x, k), k) == x)
    }
  }

  test("canonical is the lexicographically smaller of s and rc(s)") {
    val rnd = new Random(6)
    for (_ <- 1 to 300) {
      val k = 1 + rnd.nextInt(31)
      val s = randomSeq(rnd, k)
      val expect = Seq(s, Dna.rc(s)).min
      assert(Kmer.unpack(Kmer.canonical(Kmer.pack(s), k), k) == expect)
    }
  }

  test("canonical of GT with k=2 is AC (paper Fig 6)") {
    assert(Kmer.unpack(Kmer.canonical(Kmer.pack("GT"), 2), 2) == "AC")
  }

  test("canonical is invariant under rc") {
    val rnd = new Random(7)
    for (_ <- 1 to 200) {
      val k = 1 + rnd.nextInt(31)
      val x = Kmer.pack(randomSeq(rnd, k))
      assert(Kmer.canonical(x, k) == Kmer.canonical(Kmer.rc(x, k), k))
    }
  }

  test("no palindromic k-mers for odd k") {
    val rnd = new Random(8)
    for (_ <- 1 to 200) {
      val k = 1 + 2 * rnd.nextInt(16) // odd in [1,31]
      val x = Kmer.pack(randomSeq(rnd, k))
      assert(Kmer.rc(x, k) != x)
    }
  }

  test("canonical comparison is unsigned at 32 bases (k+1 with k=31)") {
    // "T"*32 packs to -1 (all ones); its rc is "A"*32 = 0, the canonical.
    val t32 = Kmer.pack("T" * 32)
    assert(t32 == -1L)
    assert(Kmer.canonical(t32, 32) == 0L)
  }

  test("prefix and suffix of a (k+1)-mer match string slicing") {
    val rnd = new Random(9)
    for (_ <- 1 to 200) {
      val k = 1 + rnd.nextInt(31)
      val s = randomSeq(rnd, k + 1)
      val e = Kmer.pack(s)
      assert(Kmer.unpack(Kmer.prefix(e), k) == s.substring(0, k))
      assert(Kmer.unpack(Kmer.suffix(e, k), k) == s.substring(1))
    }
  }

  test("extend appends one base") {
    assert(Kmer.unpack(Kmer.extend(Kmer.pack("ACG"), Dna.code('T')), 4) == "ACGT")
  }

  test("mask(32) covers all 64 bits") {
    assert(Kmer.mask(32) == -1L)
    assert(Kmer.mask(31) == (1L << 62) - 1)
  }

  /** (position, canonical, isForward) of every window, the naive way: cut
    * the ACGT runs out with a regex, then pack and canonicalise substrings.
    */
  def naiveWindows(s: String, w: Int): Seq[(Int, Long, Boolean)] =
    "[ACGT]+".r.findAllMatchIn(s).toSeq.flatMap { m =>
      (m.start to m.end - w).map { p =>
        val x = Kmer.pack(s.substring(p, p + w))
        val c = Kmer.canonical(x, w)
        (p, c, c == x)
      }
    }

  /** Base runs of up to 60 separated by runs of N and other characters. */
  val sequences: Gen[String] = Gen.listOf(for {
    bases <- Gen.choose(0, 60).flatMap(Gen.listOfN(_, Gen.oneOf('A', 'C', 'G', 'T')))
    other <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf("NNNnax-. \u00e9".toSeq)))
  } yield bases.mkString + other.mkString).map(_.mkString)

  test("property: Scanner yields exactly the naive windows, for w in [1, 32]") {
    var signBitCases = 0 // 32-base windows where a signed compare picks the other form
    val prop = Prop.forAllNoShrink(sequences, Gen.choose(1, 32)) { (s, w) =>
      val got = Seq.newBuilder[(Int, Long, Boolean)]
      val sc  = new Kmer.Scanner(s, w)
      while (sc.next()) got += ((sc.pos, sc.canonical, sc.isForward))
      val expect = naiveWindows(s, w)
      if (w == 32) signBitCases += expect.count { case (_, c, _) => (c < 0) != (Kmer.rc(c, w) < 0) }
      got.result() == expect && Kmer.canonicalWindows(s, w) == expect.map(_._2)
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(11))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
    assert(signBitCases > 0, "no 32-base window used bit 63")
  }
}
