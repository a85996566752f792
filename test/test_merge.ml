(* Stencil merging tests: the PW advection fusion the paper reports, and
   the safety conditions that must prevent fusion. *)

open Fsc_ir
module Stencil = Fsc_stencil.Stencil

let () = Fsc_dialects.Registry.init ()

let prepare src =
  let m = Fsc_fortran.Flower.compile_source src in
  ignore (Fsc_core.Discovery.run m);
  m

let applies m = Op.collect_ops Stencil.is_apply m

let test_pw_fusion () =
  let m =
    prepare (Fsc_driver.Benchmarks.pw_advection ~nx:6 ~ny:6 ~nz:6 ~niter:1 ())
  in
  (* before merging: 6 init applies + 3 advection applies *)
  Alcotest.(check int) "9 applies before" 9 (List.length (applies m));
  let merged = Fsc_core.Merge.run m in
  Verifier.verify_exn m;
  Alcotest.(check int) "7 merges" 7 merged;
  (* after: 1 fused init + 1 fused advection *)
  let remaining = applies m in
  Alcotest.(check int) "2 applies after" 2 (List.length remaining);
  (* the advection apply carries three results (su, sv, sw) *)
  Alcotest.(check bool) "one apply with 3 results" true
    (List.exists (fun a -> Op.num_results a = 3) remaining)

let test_fusion_semantics_preserved () =
  (* executing with and without merging gives identical results *)
  let src = Fsc_driver.Benchmarks.pw_advection ~nx:6 ~ny:6 ~nz:6 ~niter:2 () in
  let run merge =
    Fsc_core.Extraction.reset_name_counter ();
    let m = Fsc_fortran.Flower.compile_source src in
    ignore (Fsc_core.Discovery.run m);
    if merge then ignore (Fsc_core.Merge.run m);
    let ex = Fsc_core.Extraction.run m in
    Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu
      ex.Fsc_core.Extraction.stencil_module;
    let ctx = Fsc_rt.Interp.create_context () in
    Fsc_rt.Interp.add_module ctx ex.Fsc_core.Extraction.host_module;
    Fsc_rt.Interp.add_module ctx ex.Fsc_core.Extraction.stencil_module;
    Fsc_rt.Interp.run_main ctx;
    List.map
      (fun n -> List.assoc n ctx.Fsc_rt.Interp.named_buffers)
      [ "su"; "sv"; "sw" ]
  in
  let with_merge = run true and without = run false in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 0.)) "identical grids" 0.
        (Fsc_rt.Memref_rt.max_abs_diff a b))
    with_merge without

let test_no_fusion_on_dependency () =
  (* Gauss-Seidel: the copy-back reads what the sweep wrote; they must
     NOT merge *)
  let m =
    prepare (Fsc_driver.Benchmarks.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:1 ())
  in
  let before = List.length (applies m) in
  let merged = Fsc_core.Merge.run m in
  (* only the two init applies merge *)
  Alcotest.(check int) "only init fusion" 1 merged;
  Alcotest.(check int) "sweep and copy stay separate" (before - 1)
    (List.length (applies m))

let test_no_fusion_on_bounds_mismatch () =
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 10
  integer :: i
  real(kind=8), dimension(0:n+1) :: a, b, c, d
  do i = 1, n
    b(i) = a(i) * 2.0d0
  end do
  do i = 2, n - 1
    d(i) = c(i) * 3.0d0
  end do
end program p
|}
  in
  let m = prepare src in
  let merged = Fsc_core.Merge.run m in
  Alcotest.(check int) "different bounds: no merge" 0 merged

let test_fusion_dedupes_inputs () =
  (* two stencils reading the same array: the fused apply takes it once *)
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 10
  integer :: i
  real(kind=8), dimension(0:n+1) :: a, b, c
  do i = 1, n
    b(i) = a(i-1) + a(i+1)
  end do
  do i = 1, n
    c(i) = a(i) * 2.0d0
  end do
end program p
|}
  in
  let m = prepare src in
  let merged = Fsc_core.Merge.run m in
  Alcotest.(check int) "merged" 1 merged;
  match applies m with
  | [ fused ] ->
    (* inputs: one temp of a for the first apply and one for the second;
       both load from the same array — after dedup at most 2 temps *)
    Alcotest.(check bool) "inputs deduped" true (Op.num_operands fused <= 2)
  | l -> Alcotest.failf "expected 1 apply, got %d" (List.length l)

let () =
  Alcotest.run "merge"
    [ ("merge",
       [ Alcotest.test_case "pw fusion" `Quick test_pw_fusion;
         Alcotest.test_case "semantics preserved" `Quick
           test_fusion_semantics_preserved;
         Alcotest.test_case "no fusion on dependency" `Quick
           test_no_fusion_on_dependency;
         Alcotest.test_case "no fusion on bounds mismatch" `Quick
           test_no_fusion_on_bounds_mismatch;
         Alcotest.test_case "inputs deduped" `Quick
           test_fusion_dedupes_inputs ]) ]
