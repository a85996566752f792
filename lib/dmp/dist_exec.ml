(* Concurrent SPMD executor: runs a halo-exchange computation over a
   [Decomp.t] with simulated MPI, validating that the auto-parallelised
   pipeline computes the same grid as serial execution. Local grids carry
   one-cell halos in the decomposed (y, z) dimensions; the x dimension is
   never decomposed (it is the contiguous one).

   Ranks execute in parallel on a [Domain_pool]. A superstep is a list
   of *phases*; everything sent in one phase must be receivable in the
   next, so the executor needs a barrier between phases: all the
   phases of a call run inside one pool *team* — each team member owns
   a fixed contiguous slice of ranks for the whole call and the phases
   are separated by a cheap reusable spin-then-block barrier. One pool
   launch amortises over every phase of every superstep in the call.

   There is one superstep schedule, the paper's non-overlapped DMP
   lowering: every rank posts its halos, then every rank receives them
   and computes over its whole local interior — two phases per
   superstep. Messages are in-memory mailbox copies, so there is no
   latency for a communication/computation overlap to hide.

   Halo messages are *coalesced*: one message per neighbour per
   superstep carries every field in the swap set behind a field-offset
   header, so the message count is independent of the swap-set size. *)

module Mpi = Fsc_rt.Mpi_sim
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool
module Obs = Fsc_obs.Obs

let c_msgs = Obs.counter "dmp.msgs"
let c_bytes = Obs.counter "dmp.bytes"

type rank_state = {
  rs_rank : int;
  mutable rs_fields : (string * Rt.t) list;
  rs_range : (int * int) * (int * int) * (int * int); (* global 1-based *)
}

type t = {
  decomp : Decomp.t;
  mpi : Mpi.t;
  ranks : rank_state array;
  pool : Pool.t option;
  field_rank : int; (* 2 or 3: local grids are (lx+2)(ly+2)[(lz+2)] *)
}

(* Fill one rank's local grid from the global-coordinate initialiser.
   Local (i,j,k) with halo maps to global (i, yl-1+j, zl-1+k). *)
let fill_local t st buf f =
  let (_, _), (yl, _), (zl, _) = st.rs_range in
  let dims = buf.Rt.dims in
  let lz1 = if t.field_rank = 2 then 0 else dims.(2) - 1 in
  for k = 0 to lz1 do
    for j = 0 to dims.(1) - 1 do
      for i = 0 to dims.(0) - 1 do
        let v = f (i, yl - 1 + j, zl - 1 + k) in
        if t.field_rank = 2 then Rt.set buf [| i; j |] v
        else Rt.set buf [| i; j; k |] v
      done
    done
  done

let alloc_local t rank =
  let lx, ly, lz = Decomp.local_extents t.decomp rank in
  if t.field_rank = 2 then Rt.create [ lx + 2; ly + 2 ]
  else Rt.create [ lx + 2; ly + 2; lz + 2 ]

(* Find-or-allocate a rank's buffer for [name]. On overwrite the assoc
   list is rebuilt with exactly one binding: a duplicate left behind by
   out-of-order field creation would otherwise shadow the authoritative
   buffer on the next lookup. *)
let rank_buffer t st name =
  match List.assoc_opt name st.rs_fields with
  | Some b ->
    if List.exists (fun (n, b') -> n = name && not (b' == b)) st.rs_fields
    then
      st.rs_fields <-
        (name, b) :: List.filter (fun (n, _) -> n <> name) st.rs_fields;
    b
  | None ->
    let b = alloc_local t st.rs_rank in
    st.rs_fields <- (name, b) :: st.rs_fields;
    b

(* Add a field (or overwrite an existing one's values) on every rank,
   initialised from global 0-based array coordinates, halos included. *)
let set_field t name f =
  Array.iter (fun st -> fill_local t st (rank_buffer t st name) f) t.ranks

(* Fast scatter from a global (nx+2)(ny+2)[(nz+2)] buffer: x is never
   decomposed, so every local (j, k) row is a contiguous run of
   dims.(0) cells mapping to an equally contiguous global run — row
   copies with flat indices instead of a per-cell closure call. *)
let set_field_from_global t name gbuf =
  let nx, ny, nz = t.decomp.Decomp.global in
  let expected =
    if t.field_rank = 2 then [| nx + 2; ny + 2 |]
    else [| nx + 2; ny + 2; nz + 2 |]
  in
  if gbuf.Rt.dims <> expected then
    invalid_arg "Dist_exec.set_field_from_global: global buffer shape";
  let gdata = gbuf.Rt.data in
  let gs1 = gbuf.Rt.strides.(1) in
  Array.iter
    (fun st ->
      let buf = rank_buffer t st name in
      let (_, _), (yl, _), (zl, _) = st.rs_range in
      let dims = buf.Rt.dims in
      let d0 = dims.(0) in
      let data = buf.Rt.data in
      let ls1 = buf.Rt.strides.(1) in
      if t.field_rank = 2 then
        for j = 0 to dims.(1) - 1 do
          let g = (yl - 1 + j) * gs1 and l = j * ls1 in
          for i = 0 to d0 - 1 do
            Bigarray.Array1.unsafe_set data (l + i)
              (Bigarray.Array1.unsafe_get gdata (g + i))
          done
        done
      else begin
        let gs2 = gbuf.Rt.strides.(2) and ls2 = buf.Rt.strides.(2) in
        for k = 0 to dims.(2) - 1 do
          for j = 0 to dims.(1) - 1 do
            let g = ((yl - 1 + j) * gs1) + ((zl - 1 + k) * gs2)
            and l = (j * ls1) + (k * ls2) in
            for i = 0 to d0 - 1 do
              Bigarray.Array1.unsafe_set data (l + i)
                (Bigarray.Array1.unsafe_get gdata (g + i))
            done
          done
        done
      end)
    t.ranks

let has_field t name =
  Array.length t.ranks > 0 && List.mem_assoc name t.ranks.(0).rs_fields

let create ?pool ?(field_rank = 3) decomp ~fields ~init =
  (if field_rank <> 2 && field_rank <> 3 then
     invalid_arg "Dist_exec.create: field_rank must be 2 or 3");
  (let _, _, nz = decomp.Decomp.global in
   if field_rank = 2 && nz <> 1 then
     invalid_arg "Dist_exec.create: 2-D fields require a global nz of 1");
  let mpi = Mpi.create (Decomp.nranks decomp) in
  let ranks =
    Array.init (Decomp.nranks decomp) (fun rank ->
        { rs_rank = rank; rs_fields = [];
          rs_range = Decomp.local_range decomp rank })
  in
  let t = { decomp; mpi; ranks; pool; field_rank } in
  List.iter (fun name -> set_field t name (init name)) fields;
  t

let field st name = List.assoc name st.rs_fields

(* ------------------------------------------------------------------ *)
(* Halo packing                                                        *)
(* ------------------------------------------------------------------ *)

(* j/k index of the plane to send (interior boundary) and to receive
   into (halo). *)
let send_plane_index buf = function
  | Decomp.Y_low -> (`Y, 1)
  | Decomp.Y_high -> (`Y, buf.Rt.dims.(1) - 2)
  | Decomp.Z_low -> (`Z, 1)
  | Decomp.Z_high -> (`Z, buf.Rt.dims.(2) - 2)

let recv_plane_index buf = function
  | Decomp.Y_low -> (`Y, 0)
  | Decomp.Y_high -> (`Y, buf.Rt.dims.(1) - 1)
  | Decomp.Z_low -> (`Z, 0)
  | Decomp.Z_high -> (`Z, buf.Rt.dims.(2) - 1)

(* Cells in the halo plane normal to [dir]. *)
let plane_len buf dir =
  let dims = buf.Rt.dims in
  match dir with
  | Decomp.Y_low | Decomp.Y_high ->
    if Array.length dims = 2 then dims.(0) else dims.(0) * dims.(2)
  | Decomp.Z_low | Decomp.Z_high -> dims.(0) * dims.(1)

(* Copy the (axis, idx) plane into [out] starting at [off], returning
   the cell count. Flat stride arithmetic: per-cell [Rt.get] would
   allocate an index array per element, a measurable cost at the halo
   rates a superstep-per-iteration schedule sustains. *)
let pack_into buf (axis, idx) out ~off =
  let dims = buf.Rt.dims and s = buf.Rt.strides in
  let data = buf.Rt.data in
  let d0 = dims.(0) in
  match axis with
  | `Y ->
    if Array.length dims = 2 then begin
      let base = idx * s.(1) in
      for i = 0 to d0 - 1 do
        Array.unsafe_set out (off + i) (Bigarray.Array1.unsafe_get data (base + i))
      done;
      d0
    end
    else begin
      let base = idx * s.(1) and s2 = s.(2) in
      for k = 0 to dims.(2) - 1 do
        let src = base + (k * s2) and dst = off + (k * d0) in
        for i = 0 to d0 - 1 do
          Array.unsafe_set out (dst + i)
            (Bigarray.Array1.unsafe_get data (src + i))
        done
      done;
      d0 * dims.(2)
    end
  | `Z ->
    let base = idx * s.(2) and s1 = s.(1) in
    for j = 0 to dims.(1) - 1 do
      let src = base + (j * s1) and dst = off + (j * d0) in
      for i = 0 to d0 - 1 do
        Array.unsafe_set out (dst + i)
          (Bigarray.Array1.unsafe_get data (src + i))
      done
    done;
    d0 * dims.(1)

let unpack_from buf (axis, idx) payload ~off =
  let dims = buf.Rt.dims and s = buf.Rt.strides in
  let data = buf.Rt.data in
  let d0 = dims.(0) in
  match axis with
  | `Y ->
    if Array.length dims = 2 then begin
      let base = idx * s.(1) in
      for i = 0 to d0 - 1 do
        Bigarray.Array1.unsafe_set data (base + i)
          (Array.unsafe_get payload (off + i))
      done;
      d0
    end
    else begin
      let base = idx * s.(1) and s2 = s.(2) in
      for k = 0 to dims.(2) - 1 do
        let dst = base + (k * s2) and src = off + (k * d0) in
        for i = 0 to d0 - 1 do
          Bigarray.Array1.unsafe_set data (dst + i)
            (Array.unsafe_get payload (src + i))
        done
      done;
      d0 * dims.(2)
    end
  | `Z ->
    let base = idx * s.(2) and s1 = s.(1) in
    for j = 0 to dims.(1) - 1 do
      let dst = base + (j * s1) and src = off + (j * d0) in
      for i = 0 to d0 - 1 do
        Bigarray.Array1.unsafe_set data (dst + i)
          (Array.unsafe_get payload (src + i))
      done
    done;
    d0 * dims.(1)

(* Coalesced payload: one message per neighbour carrying every field of
   the swap set. Layout:

     [0]             nfields
     [1 .. nfields]  absolute start offset of each field's plane
     planes...       in swap-set order

   The header makes the payload self-describing, so a sender/receiver
   schedule mismatch (different swap sets after a fusion bug) surfaces
   as a typed [Invalid_argument] instead of silent corruption. *)
let pack_coalesced t ~names ~rank ~dir =
  let st = t.ranks.(rank) in
  let bufs = List.map (field st) names in
  let nf = List.length bufs in
  let header = 1 + nf in
  let total =
    List.fold_left (fun acc b -> acc + plane_len b dir) header bufs
  in
  let out = Array.make total 0.0 in
  out.(0) <- float_of_int nf;
  let off = ref header in
  List.iteri
    (fun f b ->
      out.(1 + f) <- float_of_int !off;
      off := !off + pack_into b (send_plane_index b dir) out ~off:!off)
    bufs;
  out

let unpack_coalesced t ~names ~rank ~dir payload =
  let st = t.ranks.(rank) in
  let bufs = List.map (field st) names in
  let nf = List.length bufs in
  let len = Array.length payload in
  if len < 1 + nf || int_of_float payload.(0) <> nf then
    invalid_arg
      (Printf.sprintf
         "Dist_exec.unpack_coalesced: header says %d field(s), receiver \
          expects %d"
         (if len = 0 then 0 else int_of_float payload.(0))
         nf);
  List.iteri
    (fun f b ->
      let off = int_of_float payload.(1 + f) in
      let n = plane_len b dir in
      if off < 1 + nf || off + n > len then
        invalid_arg
          (Printf.sprintf
             "Dist_exec.unpack_coalesced: field %d plane [%d, %d) escapes \
              the %d-cell payload"
             f off (off + n) len);
      ignore (unpack_from b (recv_plane_index b dir) payload ~off))
    bufs

(* One halo swap across all ranks: one message per neighbour for the
   whole swap set. *)
let post_coalesced t ~names ~rank =
  List.iter
    (fun dir ->
      match Decomp.neighbor t.decomp rank dir with
      | Some nbr ->
        let payload = pack_coalesced t ~names ~rank ~dir in
        Mpi.send t.mpi ~src:rank ~dst:nbr
          ~tag:(Decomp.tag_of_direction dir)
          payload;
        Obs.incr c_msgs;
        Obs.add c_bytes (8 * Array.length payload)
      | None -> ())
    Decomp.directions

let consume_coalesced t ~names ~rank =
  List.iter
    (fun dir ->
      match Decomp.neighbor t.decomp rank dir with
      | Some nbr ->
        (* our halo in direction [dir] is the neighbour's send in the
           opposite direction *)
        let payload =
          Mpi.recv t.mpi ~src:nbr ~dst:rank
            ~tag:(Decomp.tag_of_direction (Decomp.opposite dir))
        in
        unpack_coalesced t ~names ~rank ~dir payload
      | None -> ())
    Decomp.directions

(* ------------------------------------------------------------------ *)
(* Supersteps                                                          *)
(* ------------------------------------------------------------------ *)

(* Build one superstep as a list of phases (each a per-rank body);
   everything sent in a phase is receivable in the next. The phase list
   is data: [run_phases] realises the barriers between phases, and
   callers may concatenate the phases of many supersteps into one
   [run_phases] call to amortise the pool launch. *)
let superstep_phases t ~swap_fields ~compute =
  if swap_fields = [] then
    (* nothing to exchange (a fused superstep): one compute-only phase *)
    [ compute ]
  else
    [ (fun ~rank -> post_coalesced t ~names:swap_fields ~rank);
      (fun ~rank ->
        consume_coalesced t ~names:swap_fields ~rank;
        compute ~rank) ]

(* Execute a phase list: each team member is pinned to a fixed
   contiguous slice of ranks for the whole list and phases are
   separated by the team's reusable barrier — one pool launch however
   many phases. *)
let run_phases t phases =
  let n = Array.length t.ranks in
  let run_slice ~lo ~hi ~barrier =
    List.iteri
      (fun i ph ->
        if i > 0 then barrier ();
        for r = lo to hi - 1 do
          ph ~rank:r
        done)
      phases
  in
  match t.pool with
  | Some pool when n > 1 && Pool.size pool > 1 ->
    let members = min (Pool.size pool) n in
    Pool.team pool ~members (fun ~member ~barrier ->
        run_slice ~lo:(member * n / members)
          ~hi:((member + 1) * n / members)
          ~barrier)
  | _ -> run_slice ~lo:0 ~hi:n ~barrier:ignore

(* Run [iters] supersteps: swap halos of [swap_fields], then run
   [compute] on each rank. All the supersteps' phases run inside a
   single pool launch. *)
let iterate t ~iters ~swap_fields ~compute =
  run_phases t
    (List.concat
       (List.init iters (fun _ -> superstep_phases t ~swap_fields ~compute)))

(* ------------------------------------------------------------------ *)
(* Gather                                                              *)
(* ------------------------------------------------------------------ *)

(* Gather field [name] into a global (nx+2)(ny+2)[(nz+2)] grid. Each
   rank contributes its interior plus only those halo planes that sit on
   the *global* boundary — interior halos are other ranks' cells (and
   may be one exchange stale), so writing them would corrupt the
   gather. Row copies with flat indices (x is contiguous in both). *)
let gather_into t name out =
  let nx, ny, nz = t.decomp.Decomp.global in
  let odata = out.Rt.data in
  let os1 = out.Rt.strides.(1) in
  Array.iter
    (fun st ->
      let (_, _), (yl, yh), (zl, zh) = st.rs_range in
      let jlo = if yl = 1 then yl - 1 else yl in
      let jhi = if yh = ny then yh + 1 else yh in
      let klo = if zl = 1 then zl - 1 else zl in
      let khi = if zh = nz then zh + 1 else zh in
      let buf = field st name in
      let data = buf.Rt.data in
      let ls1 = buf.Rt.strides.(1) in
      if t.field_rank = 2 then
        for j = jlo to jhi do
          let l = (j - yl + 1) * ls1 and g = j * os1 in
          for i = 0 to nx + 1 do
            Bigarray.Array1.unsafe_set odata (g + i)
              (Bigarray.Array1.unsafe_get data (l + i))
          done
        done
      else begin
        let os2 = out.Rt.strides.(2) and ls2 = buf.Rt.strides.(2) in
        for k = klo to khi do
          for j = jlo to jhi do
            let l = ((j - yl + 1) * ls1) + ((k - zl + 1) * ls2)
            and g = (j * os1) + (k * os2) in
            for i = 0 to nx + 1 do
              Bigarray.Array1.unsafe_set odata (g + i)
                (Bigarray.Array1.unsafe_get data (l + i))
            done
          done
        done
      end)
    t.ranks

let gather t name =
  let nx, ny, nz = t.decomp.Decomp.global in
  let out =
    if t.field_rank = 2 then Rt.create [ nx + 2; ny + 2 ]
    else Rt.create [ nx + 2; ny + 2; nz + 2 ]
  in
  gather_into t name out;
  out

let stats t = (Mpi.messages t.mpi, Mpi.bytes t.mpi)
