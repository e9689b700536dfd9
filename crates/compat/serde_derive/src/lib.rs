//! `#[derive(Serialize, Deserialize)]` for the in-tree serde stand-in.
//!
//! `Serialize` emits the struct as one object walk into a `serde::Sink`;
//! `Deserialize` reads it back from a `serde::Value` tree.
//!
//! Implemented without `syn`/`quote` (neither is available offline): the
//! derive input is parsed with a small hand-rolled walk over
//! [`proc_macro::TokenTree`]s and the impl is emitted as a formatted string.
//!
//! Supported shape: non-generic structs with named fields. The only field
//! attribute honored is `#[serde(default)]` (missing field deserializes via
//! `Default::default()`). Anything else produces a compile error naming the
//! limitation, so a future extension knows exactly where to start.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    has_default: bool,
}

struct Input {
    name: String,
    fields: Vec<Field>,
}

/// Parses `[attrs] [vis] struct Name { [attrs] [vis] name: Type, ... }`.
fn parse_struct(input: TokenStream) -> Result<Input, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes and visibility, find `struct`.
    let name = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // Consume optional `(crate)` etc.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                match tokens.next() {
                    Some(TokenTree::Ident(n)) => break n.to_string(),
                    other => return Err(format!("expected struct name, got {other:?}")),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                return Err("serde stand-in derive supports only structs with named fields \
                            (enum found); hand-write the impl or extend serde_derive"
                    .into());
            }
            Some(other) => return Err(format!("unexpected token before `struct`: {other}")),
            None => return Err("no `struct` keyword found".into()),
        }
    };

    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                return Err("serde stand-in derive does not support generic structs".into());
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                // Unit struct: no fields.
                return Ok(Input { name, fields: Vec::new() });
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err("serde stand-in derive does not support tuple structs".into());
            }
            Some(_) => continue,
            None => return Err("struct has no body".into()),
        }
    };

    let mut fields = Vec::new();
    let mut body_tokens = body.into_iter().peekable();
    'fields: loop {
        let mut has_default = false;
        // Field attributes.
        loop {
            match body_tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    body_tokens.next();
                    if let Some(TokenTree::Group(g)) = body_tokens.next() {
                        let text = g.stream().to_string();
                        if text.starts_with("serde") && text.contains("default") {
                            has_default = true;
                        }
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    body_tokens.next();
                    if let Some(TokenTree::Group(g)) = body_tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            body_tokens.next();
                        }
                    }
                }
                Some(_) => break,
                None => break 'fields,
            }
        }
        let field_name = match body_tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break 'fields,
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match body_tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field `{field_name}`, got {other:?}")),
        }
        // Skip the type up to the next top-level comma; `<`/`>` puncts from
        // generic types are tracked so `HashMap<K, V>` does not split early.
        let mut angle_depth: i32 = 0;
        loop {
            match body_tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle_depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => angle_depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => break,
                Some(_) => {}
                None => {
                    fields.push(Field { name: field_name, has_default });
                    break 'fields;
                }
            }
        }
        fields.push(Field { name: field_name, has_default });
    }

    Ok(Input { name, fields })
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg).parse().unwrap()
}

/// Derives `serde::Serialize`: one object, its fields in declaration
/// order, emitted into the sink.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = match parse_struct(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let mut fields = String::new();
    for f in &parsed.fields {
        fields.push_str(&format!("::serde::field(sink__, {:?}, &self.{});\n", f.name, f.name));
    }
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<S__: ::serde::Sink + ?::std::marker::Sized>(&self, sink__: &mut S__) {{\n\
                 ::serde::Sink::begin_object(sink__, {n});\n\
                 {fields}\
                 ::serde::Sink::end(sink__);\n\
             }}\n\
         }}\n",
        name = parsed.name,
        n = parsed.fields.len(),
        fields = fields,
    );
    out.parse().unwrap()
}

/// Derives `serde::Deserialize` (value-tree model).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = match parse_struct(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let mut inits = String::new();
    for f in &parsed.fields {
        let missing = if f.has_default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(::serde::DeError::custom(\
                 concat!(\"missing field `\", {:?}, \"` for struct {}\")))",
                f.name, parsed.name
            )
        };
        inits.push_str(&format!(
            "{field}: match ::serde::find_field(obj__, {name:?}) {{\n\
                 ::std::option::Option::Some(v__) => ::serde::Deserialize::from_value(v__)?,\n\
                 ::std::option::Option::None => {missing},\n\
             }},\n",
            field = f.name,
            name = f.name,
            missing = missing,
        ));
    }
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v__: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 let obj__ = match v__.as_object() {{\n\
                     ::std::option::Option::Some(o) => o,\n\
                     ::std::option::Option::None => return ::std::result::Result::Err(\n\
                         ::serde::DeError::custom(concat!(\"expected object for struct \", {name_str:?}))),\n\
                 }};\n\
                 ::std::result::Result::Ok({name} {{\n\
                     {inits}\
                 }})\n\
             }}\n\
         }}\n",
        name = parsed.name,
        name_str = parsed.name,
        inits = inits,
    );
    out.parse().unwrap()
}
