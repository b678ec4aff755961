package repro.dna

/** Variable-length DNA sequence packed 2 bits per base (paper Fig. 9).
  *
  * Contig vertices keep their sequence as a bitmap; this class is the
  * reproduction of that format. Bases are stored 32 per Long, base i in
  * bits (2*(i % 32)) .. (2*(i % 32) + 1) of word i/32.
  */
final case class PackedSeq(words: Array[Long], length: Int) extends Serializable {

  /** 2-bit code of base i. */
  def codeAt(i: Int): Int = {
    require(i >= 0 && i < length, s"index $i out of [0,$length)")
    ((words(i >> 5) >>> (2 * (i & 31))) & 3L).toInt
  }

  /** Base character at position i. */
  def charAt(i: Int): Char = Dna.char(codeAt(i))

  /** Reverse complement as a new PackedSeq. */
  def rc: PackedSeq = {
    val b = new PackedSeqBuilder(length)
    var i = length - 1
    while (i >= 0) { b.append(codeAt(i) ^ 3); i -= 1 }
    b.result()
  }

  /** Number of G/C bases. */
  def gcCount: Long = {
    var n = 0L
    var i = 0
    while (i < length) { val c = codeAt(i); if (c == 1 || c == 2) n += 1; i += 1 }
    n
  }

  /** Render as an ACGT string. */
  override def toString: String = {
    val sb = new StringBuilder(length)
    var i = 0
    while (i < length) { sb.append(charAt(i)); i += 1 }
    sb.toString
  }

  override def equals(o: Any): Boolean = o match {
    case p: PackedSeq => p.length == length && java.util.Arrays.equals(p.words, words)
    case _            => false
  }
  override def hashCode: Int = 31 * java.util.Arrays.hashCode(words) + length
}

object PackedSeq {

  /** Pack an ACGT string. */
  def fromString(s: String): PackedSeq = {
    val b = new PackedSeqBuilder(s.length)
    var i = 0
    while (i < s.length) { b.append(Dna.code(s.charAt(i))); i += 1 }
    b.result()
  }

  /** Unpack a k-mer vertex ID into its sequence. */
  def fromKmer(id: Long, k: Int): PackedSeq = {
    val b = new PackedSeqBuilder(k)
    var i = 0
    while (i < k) { b.append(Kmer.baseAt(id, k, i)); i += 1 }
    b.result()
  }
}

/** Append-only builder for PackedSeq. */
final class PackedSeqBuilder(sizeHint: Int = 16) {
  private var words  = new Array[Long](math.max(1, (sizeHint + 31) >> 5))
  private var length = 0

  /** Append one 2-bit base code. */
  def append(code: Int): this.type = {
    val w = length >> 5
    if (w >= words.length) words = java.util.Arrays.copyOf(words, words.length * 2)
    words(w) |= (code.toLong & 3L) << (2 * (length & 31))
    length += 1
    this
  }

  /** Append a sub-range [from, until) of another sequence. */
  def appendSeq(s: PackedSeq, from: Int = 0, until: Int = -1): this.type = {
    val end = if (until < 0) s.length else until
    var i = from
    while (i < end) { append(s.codeAt(i)); i += 1 }
    this
  }

  def size: Int = length

  def result(): PackedSeq =
    PackedSeq(java.util.Arrays.copyOf(words, (length + 31) >> 5), length)
}
