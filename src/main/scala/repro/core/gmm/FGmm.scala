package repro.core.gmm

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoders}
import repro.core.{DenseR, FkRow, Touched}
import repro.linalg.{Mat, Vec}
import scala.collection.parallel.CollectionConverters._

/** Partition-local state of the factorized S-side pass: the global S-block
  * sums plus the **per-FK grouped** statistics (γ-sums and γ-weighted x_S
  * sums), held in dense slots indexed by R's dense index `r`:
  * `g(r·k + i)` and `sgx((r·k + i)·dS + j)`.
  */
private[gmm] final class FGmmAccum(k: Int, dS: Int, nR: Int) {
  private var n: Long = 0L
  private var loglik: Double = 0.0
  private val nk = new Array[Double](k)
  private val sxS = Array.fill(k)(new Array[Double](dS))
  private val sxxSS = Array.fill(k)(Mat.zeros(dS, dS))
  private val g = new Array[Double](nR * k)
  private val sgx = new Array[Double](nR * k * dS)
  private val touched = new Touched(nR)

  /** Fold in one S row that joins R tuple `r`. */
  def add(r: Int, xs: Array[Double], gamma: Array[Double], ll: Double): Unit = {
    n += 1; loglik += ll
    touched.add(r)
    var i = 0
    while (i < k) {
      val gi = gamma(i)
      nk(i) += gi
      Vec.axpy(gi, xs, sxS(i))
      sxxSS(i).addOuter(gi, xs, xs)
      g(r * k + i) += gi
      val off = (r * k + i) * dS
      var j = 0
      while (j < dS) { sgx(off + j) += gi * xs(j); j += 1 }
      i += 1
    }
  }

  /** Finish this partition's R-side M-step blocks (paper §V-B), one kernel
    * per R tuple the partition touched, from R's flat features `xr`:
    * `Σ γ x_R = Σ_r g_r x_r`, `UR = Σ_r (Σ_{fk=r} γ x_S) x_rᵀ` and
    * `LR = Σ_r g_r x_r x_rᵀ`. The result is the denormalized accumulator
    * these rows would have produced at width d = dS + dR; the finish is
    * linear in the per-FK sums, so summing finished partitions is exact.
    */
  private[gmm] def finish(xr: Array[Double], dR: Int): GmmAccum = {
    val d = dS + dR
    val out = new GmmAccum(k, d)
    out.n = n; out.loglik = loglik
    var i = 0
    while (i < k) {
      out.nk(i) = nk(i)
      System.arraycopy(sxS(i), 0, out.sx(i), 0, dS)
      out.sxx(i).setBlock(0, 0, sxxSS(i))
      i += 1
    }
    var t = 0
    while (t < touched.size) {
      val r = touched(t)
      val xo = r * dR
      i = 0
      while (i < k) {
        val gi = g(r * k + i)
        val sx = out.sx(i)
        val m = out.sxx(i).a
        var p = 0
        while (p < dR) { // μ_R numerator and the upper triangle of LR
          val gx = gi * xr(xo + p)
          sx(dS + p) += gx
          val row = (dS + p) * d + dS
          var q = p
          while (q < dR) { m(row + q) += gx * xr(xo + q); q += 1 }
          p += 1
        }
        val so = (r * k + i) * dS
        var a = 0
        while (a < dS) { // UR
          val sa = sgx(so + a)
          val row = a * d + dS
          var q = 0
          while (q < dR) { m(row + q) += sa * xr(xo + q); q += 1 }
          a += 1
        }
        i += 1
      }
      t += 1
    }
    i = 0
    while (i < k) { // LL = URᵀ, and LR's lower triangle (Eq. 14 assembly)
      val m = out.sxx(i).a
      var p = dS
      while (p < d) {
        var q = 0
        while (q < p) { m(p * d + q) = m(q * d + p); q += 1 }
        p += 1
      }
      i += 1
    }
    out
  }
}

/** Algorithm F-GMM for binary joins (paper §V-B): EM with every per-tuple
  * matrix expression factorized into S-only and R-only blocks.
  *
  * Once per fit, R is collected, its keys are mapped to a dense index and
  * its features flattened ([[DenseR]]), and that is broadcast. Each
  * iteration then:
  *  1. precomputes on the driver, per R tuple and component, the reusable
  *     E-step blocks `w = I_SR·PDR` (a dS-vector) and `c = PDRᵀ I_RR PDR`
  *     (Eq. 9–12) — `nR·K` small kernels instead of `nS·K` — and
  *     broadcasts them as two flat arrays;
  *  2. makes one aggregation pass over **S alone** (R features never flow
  *     through a join): each partition accumulates the global S-side sums
  *     and the per-FK grouped statistics in dense slots, then finishes the
  *     R-side blocks for the R tuples it touched and returns only
  *     O(K·d²) sums;
  *  3. merges those small accumulators on the driver and runs the M-step.
  *
  * An S row whose `fk` matches no R tuple is skipped: the same inner-join
  * semantics M-GMM and S-GMM get from their join. The decomposition is
  * exact — models match M-GMM/S-GMM to fp roundoff.
  */
object FGmm {

  /** One factorized EM iteration.
    *
    * @param s      entity table S(sid, fk, xs)
    * @param rRows  collected attribute table R — (rid, xr), nR ≪ nS; a repeated
    *               rid raises an `IllegalArgumentException` naming it
    */
  def emStep(s: DataFrame, rRows: Array[(Long, Array[Double])], model: GmmModel,
             dS: Int, dR: Int): (GmmModel, Double) =
    DenseR.withBroadcast(s.sparkSession, rRows, dR)(step(s, _, model, dS))

  private def step(s: DataFrame, bcR: Broadcast[DenseR], model: GmmModel,
                   dS: Int): (GmmModel, Double) = {
    val spark = s.sparkSession
    import spark.implicits._
    val dR = bcR.value.dR
    require(model.d == dS + dR, s"model d=${model.d} != $dS + $dR")
    val k = model.k
    val d = model.d
    val cache = GmmComponentCache(model)

    // Split μ_k and I_k into the S/R blocks of Eq. (8)–(12).
    val muS = model.means.map(Vec.slice(_, 0, dS))
    val muR = model.means.map(Vec.slice(_, dS, d))
    val iSS = cache.inv.map(_.block(0, dS, 0, dS))
    val iSR = cache.inv.map(_.block(0, dS, dS, d))
    val iRR = cache.inv.map(_.block(dS, d, dS, d))

    // (1) per-R-tuple reusable blocks, once per iteration.
    val bcPre = spark.sparkContext.broadcast(rBlocks(bcR.value, muR, iSR, iRR))

    // (2) the factorized aggregation pass over S only, finished per partition.
    implicit val accEnc = Encoders.kryo[GmmAccum]
    val acc =
      try {
        s.select("fk", "xs").as[FkRow]
          .mapPartitions { it =>
            val rd = bcR.value
            val (w, c) = bcPre.value
            val a = new FGmmAccum(k, dS, rd.n)
            val gamma = new Array[Double](k)
            val quad = new Array[Double](k)
            it.foreach { row =>
              val r = rd.index.indexOf(row.fk)
              if (r >= 0) {
                val xs = row.xs
                var i = 0
                while (i < k) {
                  val pds = Vec.sub(xs, muS(i))
                  // Eq. (7) = UL + 2·(cross) + LR with the R-only parts reused
                  val wo = (r * k + i) * dS
                  var cross = 0.0
                  var j = 0
                  while (j < dS) { cross += pds(j) * w(wo + j); j += 1 }
                  quad(i) = iSS(i).quadForm(pds) + 2.0 * cross + c(r * k + i)
                  i += 1
                }
                val ll = GmmMath.responsibilities(cache, quad, gamma)
                a.add(r, xs, gamma, ll)
              }
            }
            Iterator.single(a.finish(rd.xr, rd.dR))
          }
          .reduce(_.merge(_))
      } finally bcPre.destroy()

    // (3) the M-step over the merged O(K·d²) sums.
    (acc.toModel, acc.loglik)
  }

  /** Per R tuple r and component i: `w = I_SR·PDR` at `((r·k + i)·dS)` and
    * `c = PDRᵀ I_RR PDR` at `(r·k + i)`. Tuples are independent, so chunks
    * of them are computed on all driver cores into disjoint ranges.
    */
  private def rBlocks(rd: DenseR, muR: Array[Array[Double]], iSR: Array[Mat],
                      iRR: Array[Mat]): (Array[Double], Array[Double]) = {
    val k = muR.length
    val dS = iSR.head.rows
    val dR = rd.dR
    val nR = rd.n
    val w = new Array[Double](nR * k * dS)
    val c = new Array[Double](nR * k)
    val chunk = math.max(64, nR / 64)
    (0 until nR by chunk).par.foreach { r0 =>
      var r = r0
      while (r < math.min(r0 + chunk, nR)) {
        val xr = Vec.slice(rd.xr, r * dR, (r + 1) * dR)
        var i = 0
        while (i < k) {
          val pdr = Vec.sub(xr, muR(i))
          System.arraycopy(iSR(i).mv(pdr), 0, w, (r * k + i) * dS, dS)
          c(r * k + i) = iRR(i).quadForm(pdr)
          i += 1
        }
        r += 1
      }
    }
    (w, c)
  }

  /** Collect R once (nR ≪ nS by the paper's setup), broadcast its dense
    * form once, and run `iters` factorized EM iterations.
    */
  def train(s: DataFrame, r: DataFrame, init: GmmModel, iters: Int): GmmFit = {
    val spark = s.sparkSession
    import spark.implicits._
    val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
    val dR = rRows.head._2.length
    val dS = init.d - dR
    DenseR.withBroadcast(spark, rRows, dR) { bcR =>
      var model = init
      val lls = Seq.newBuilder[Double]
      var i = 0
      while (i < iters) {
        val (next, ll) = step(s, bcR, model, dS)
        model = next
        lls += ll
        i += 1
      }
      GmmFit(model, lls.result())
    }
  }
}
