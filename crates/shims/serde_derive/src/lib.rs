//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` for the `serde` shim **without**
//! `syn`/`quote` (neither is available offline): the item is parsed by
//! hand from the raw `TokenStream`. There is no `Deserialize` derive —
//! nothing in the workspace derives one; the hand-written impls in the
//! `serde` shim cover what `serde_json::from_str` parses.
//!
//! Supported shapes — everything this workspace derives on:
//! * structs with named fields → JSON object, field order preserved;
//! * tuple structs with one field (newtypes) → the inner value;
//! * tuple structs with 2+ fields → JSON array;
//! * unit structs → `null`;
//! * enums, with serde's externally-tagged encoding: unit variants →
//!   the variant name as a string, payload variants →
//!   `{"Variant": payload}`.
//!
//! Generic items are rejected with a `compile_error!` naming this
//! file, so a future need surfaces loudly instead of mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What kind of item we are deriving for.
enum Shape {
    /// Named-field struct: `(field_name, field_type_tokens)` pairs.
    Named(Vec<(String, String)>),
    /// Tuple struct: the field type token strings, in order.
    Tuple(Vec<String>),
    /// Unit struct.
    Unit,
    /// Enum: variant names with their payload shapes.
    Enum(Vec<(String, VariantShape)>),
}

/// Payload shape of one enum variant.
enum VariantShape {
    /// No payload (`V` or `V = 3`).
    Unit,
    /// Named fields (`V { a: T, b: U }`).
    Named(Vec<(String, String)>),
    /// Tuple payload (`V(T)`, `V(T, U)`).
    Tuple(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Renders a token tree back to source text with spaces that keep
/// idents/punct apart (good enough for type positions).
fn tt_to_string(tt: &TokenTree) -> String {
    match tt {
        TokenTree::Group(g) => {
            let (open, close) = match g.delimiter() {
                Delimiter::Parenthesis => ("(", ")"),
                Delimiter::Brace => ("{", "}"),
                Delimiter::Bracket => ("[", "]"),
                Delimiter::None => ("", ""),
            };
            let inner: String = g.stream().into_iter().map(|t| tt_to_string(&t)).collect();
            format!("{open}{inner}{close}")
        }
        TokenTree::Ident(i) => format!("{i} "),
        TokenTree::Punct(p) => p.as_char().to_string(),
        TokenTree::Literal(l) => format!("{l} "),
    }
}

/// Skips attributes (`#[...]`, including doc comments) and visibility
/// (`pub`, `pub(...)`) at the current position.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut pos: usize) -> usize {
    loop {
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` followed by a bracket group.
                pos += 1;
                if matches!(tokens.get(pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    pos += 1;
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                pos += 1;
                if matches!(tokens.get(pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    pos += 1;
                }
            }
            _ => return pos,
        }
    }
}

/// Splits a token slice on commas that sit outside any `<...>` nesting
/// (groups hide their own commas, so only angle brackets need depth
/// tracking; `->` is recognised so its `>` does not close a level).
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle_depth: i32 = 0;
    let mut prev_minus = false;
    for tt in tokens {
        if let TokenTree::Punct(p) = tt {
            let c = p.as_char();
            match c {
                '<' => angle_depth += 1,
                '>' if !prev_minus => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(Vec::new());
                    prev_minus = false;
                    continue;
                }
                _ => {}
            }
            prev_minus = c == '-';
        } else {
            prev_minus = false;
        }
        out.last_mut().unwrap().push(tt.clone());
    }
    if out.last().map(|v| v.is_empty()).unwrap_or(false) {
        out.pop();
    }
    out
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = skip_attrs_and_vis(&tokens, 0);

    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    if kind != "struct" && kind != "enum" {
        return Err(format!("expected `struct` or `enum`, got `{kind}`"));
    }
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    pos += 1;

    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the serde shim derive does not support generic items (`{name}`); \
             implement Serialize by hand or extend crates/shims/serde_derive"
        ));
    }

    if kind == "enum" {
        let body = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => return Err(format!("expected enum body, got {other:?}")),
        };
        let body_tokens: Vec<TokenTree> = body.into_iter().collect();
        let mut variants = Vec::new();
        for var in split_top_level_commas(&body_tokens) {
            let mut vpos = skip_attrs_and_vis(&var, 0);
            let vname = match var.get(vpos) {
                Some(TokenTree::Ident(i)) => i.to_string(),
                None => continue,
                other => return Err(format!("expected variant name, got {other:?}")),
            };
            vpos += 1;
            let shape = match var.get(vpos) {
                None => VariantShape::Unit,
                // Explicit discriminant `= expr`.
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantShape::Unit,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantShape::Named(parse_named_fields(
                        &g.stream().into_iter().collect::<Vec<_>>(),
                    )?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantShape::Tuple(parse_tuple_fields(
                        &g.stream().into_iter().collect::<Vec<_>>(),
                    ))
                }
                other => return Err(format!("unexpected token after variant: {other:?}")),
            };
            variants.push((vname, shape));
        }
        return Ok(Item {
            name,
            shape: Shape::Enum(variants),
        });
    }

    // Struct: named, tuple, or unit.
    match tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let body_tokens: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Item {
                name,
                shape: Shape::Named(parse_named_fields(&body_tokens)?),
            })
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let body_tokens: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Item {
                name,
                shape: Shape::Tuple(parse_tuple_fields(&body_tokens)),
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item {
            name,
            shape: Shape::Unit,
        }),
        other => Err(format!("expected struct body, got {other:?}")),
    }
}

/// Parses `name: Type, ...` bodies (struct or enum-variant braces).
fn parse_named_fields(body_tokens: &[TokenTree]) -> Result<Vec<(String, String)>, String> {
    let mut fields = Vec::new();
    for field in split_top_level_commas(body_tokens) {
        let mut fpos = skip_attrs_and_vis(&field, 0);
        let fname = match field.get(fpos) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => continue,
            other => return Err(format!("expected field name, got {other:?}")),
        };
        fpos += 1;
        match field.get(fpos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after `{fname}`, got {other:?}")),
        }
        fpos += 1;
        let ty: String = field[fpos..].iter().map(tt_to_string).collect();
        fields.push((fname, ty.trim().to_string()));
    }
    Ok(fields)
}

/// Parses `Type, ...` bodies (tuple struct or enum-variant parens).
fn parse_tuple_fields(body_tokens: &[TokenTree]) -> Vec<String> {
    split_top_level_commas(body_tokens)
        .into_iter()
        .filter_map(|field| {
            let fpos = skip_attrs_and_vis(&field, 0);
            let ty: String = field[fpos..].iter().map(tt_to_string).collect();
            let ty = ty.trim().to_string();
            (!ty.is_empty()).then_some(ty)
        })
        .collect()
}

/// `#[derive(Serialize)]` — see the crate docs for supported shapes.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let entries: String = fields
                .iter()
                .map(|(f, _)| {
                    format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})),")
                })
                .collect();
            format!("::serde::Value::Map(vec![{entries}])")
        }
        Shape::Tuple(types) if types.len() == 1 => {
            "::serde::Serialize::to_value(&self.0)".to_string()
        }
        Shape::Tuple(types) => {
            let entries: String = (0..types.len())
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Seq(vec![{entries}])")
        }
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            // serde's externally-tagged encoding: unit variants are the
            // name as a string; payload variants are {"Name": payload}.
            let arms: String = variants
                .iter()
                .map(|(v, shape)| match shape {
                    VariantShape::Unit => {
                        format!("{name}::{v} => ::serde::Value::Str({v:?}.to_string()),")
                    }
                    VariantShape::Named(fields) => {
                        let binds: String = fields.iter().map(|(f, _)| format!("{f},")).collect();
                        let entries: String = fields
                            .iter()
                            .map(|(f, _)| {
                                format!("({f:?}.to_string(), ::serde::Serialize::to_value({f})),")
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Map(vec![(\
                                 {v:?}.to_string(), ::serde::Value::Map(vec![{entries}]))]),"
                        )
                    }
                    VariantShape::Tuple(types) if types.len() == 1 => format!(
                        "{name}::{v}(x0) => ::serde::Value::Map(vec![(\
                             {v:?}.to_string(), ::serde::Serialize::to_value(x0))]),"
                    ),
                    VariantShape::Tuple(types) => {
                        let binds: String = (0..types.len()).map(|i| format!("x{i},")).collect();
                        let entries: String = (0..types.len())
                            .map(|i| format!("::serde::Serialize::to_value(x{i}),"))
                            .collect();
                        format!(
                            "{name}::{v}({binds}) => ::serde::Value::Map(vec![(\
                                 {v:?}.to_string(), ::serde::Value::Seq(vec![{entries}]))]),"
                        )
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
