package repro.dna

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PackedSeqSpec extends AnyFunSuite {

  def randomSeq(rnd: Random, len: Int): String =
    (0 until len).map(_ => "ACGT"(rnd.nextInt(4))).mkString

  test("fromString/toString roundtrip, including multi-word lengths") {
    val rnd = new Random(10)
    for (_ <- 1 to 200) {
      val s = randomSeq(rnd, rnd.nextInt(200))
      assert(PackedSeq.fromString(s).toString == s)
    }
  }

  test("paper Fig 9: contig TGCCGTAC packs to bitmap 11 10 01 01 10 11 00 01") {
    val p = PackedSeq.fromString("TGCCGTAC")
    assert(p.length == 8)
    assert(p.toString == "TGCCGTAC")
    assert((0 until 8).map(p.codeAt) == Seq(3, 2, 1, 1, 2, 3, 0, 1))
  }

  test("charAt/codeAt agree with the string") {
    val s = "ACGTTGCAACGT" * 6
    val p = PackedSeq.fromString(s)
    for (i <- s.indices) {
      assert(p.charAt(i) == s.charAt(i))
      assert(p.codeAt(i) == Dna.code(s.charAt(i)))
    }
  }

  test("rc agrees with Dna.rc") {
    val rnd = new Random(11)
    for (_ <- 1 to 100) {
      val s = randomSeq(rnd, 1 + rnd.nextInt(150))
      assert(PackedSeq.fromString(s).rc.toString == Dna.rc(s))
    }
  }

  test("gcCount agrees with Dna.gcCount") {
    val rnd = new Random(13)
    for (_ <- 1 to 100) {
      val s = randomSeq(rnd, rnd.nextInt(150))
      assert(PackedSeq.fromString(s).gcCount == Dna.gcCount(s))
    }
  }

  test("equality and hashCode are structural") {
    val a = PackedSeq.fromString("ACGTACGT")
    val b = PackedSeq.fromString("ACGTACGT")
    assert(a == b && a.hashCode == b.hashCode)
    assert(a != PackedSeq.fromString("ACGTACGA"))
    assert(PackedSeq.fromString("") == PackedSeq(Array.empty[Long], 0))
  }

  test("fromKmer matches Kmer.unpack") {
    val rnd = new Random(14)
    for (_ <- 1 to 100) {
      val k = 1 + rnd.nextInt(31)
      val s = randomSeq(rnd, k)
      assert(PackedSeq.fromKmer(Kmer.pack(s), k).toString == s)
    }
  }

  test("builder appendSeq with overlap offset (the k-1 stitch)") {
    val b = new PackedSeqBuilder()
    b.appendSeq(PackedSeq.fromString("ATTGC"))
    b.appendSeq(PackedSeq.fromString("TTGCA"), from = 4) // overlap 4
    assert(b.result().toString == "ATTGCA")
  }

  test("builder grows past its size hint") {
    val b = new PackedSeqBuilder(1)
    val s = "ACGT" * 40
    s.foreach(c => b.append(Dna.code(c)))
    assert(b.result().toString == s)
  }

  test("codeAt bounds checking") {
    val p = PackedSeq.fromString("ACG")
    intercept[IllegalArgumentException](p.codeAt(3))
    intercept[IllegalArgumentException](p.codeAt(-1))
  }
}
